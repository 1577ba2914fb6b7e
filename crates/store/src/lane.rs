//! The per-lane append-only segment writer.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use endurance_obs::{Counter, Registry};
use trace_model::codec::{BinaryEncoder, CodecId, TraceEncoder};
use trace_model::{EventSink, RecordMeta, TraceError, TraceEvent};

use crate::commit::CommitLog;
use crate::index::{LaneIndex, RecoveryReport, SegmentMeta, WindowEntry, SIDECAR_SCHEMA};
use crate::reader::{scan_lane, truncate_torn};
use crate::segment::{
    encode_frame, list_lane, segment_file_name, segment_header, write_sidecar, FramePrev,
    LaneFiles, MAX_FRAME_BLOCK, SEGMENT_HEADER_LEN, SEGMENT_VERSION_V1,
};

/// Rotation policy of a store lane.
///
/// A lane stores every payload as the recorder encoded it, in format-v1
/// segments; compressing a lane is the [`crate::Compactor`]'s job, once
/// no writer holds it ([`crate::MaintenancePolicy::with_recompress`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// A segment is rotated before a frame would push it past this size
    /// (a single frame larger than the limit still gets its own segment).
    pub segment_max_bytes: u64,
    /// A segment is rotated after holding this many recorded windows.
    pub segment_max_windows: u64,
}

impl Default for StoreConfig {
    /// 8 MiB segments with no window-count limit — sized so an endurance
    /// run rotates regularly without producing thousands of files.
    fn default() -> Self {
        StoreConfig {
            segment_max_bytes: 8 * 1024 * 1024,
            segment_max_windows: u64::MAX,
        }
    }
}

impl StoreConfig {
    /// Returns the config with a different segment byte limit.
    pub fn with_segment_max_bytes(mut self, bytes: u64) -> Self {
        self.segment_max_bytes = bytes.max(1);
        self
    }

    /// Returns the config with a different per-segment window limit.
    pub fn with_segment_max_windows(mut self, windows: u64) -> Self {
        self.segment_max_windows = windows.max(1);
        self
    }
}

/// The writer's metric handles, labelled `{lane="i"}`; detached no-ops
/// unless a registry is installed.
#[derive(Debug)]
pub(crate) struct LaneMetrics {
    /// `store_frames_written_total{lane}` — frames appended this session
    /// (recovered windows are not frames *written* and are excluded).
    pub(crate) frames_written: Counter,
    /// `store_bytes_written_total{lane}` — frame bytes appended (headers
    /// included; segment headers excluded).
    pub(crate) bytes_written: Counter,
    /// `store_rotations_total{lane}` — segments closed by rotation.
    pub(crate) rotations: Counter,
}

impl LaneMetrics {
    pub(crate) fn from_registry(registry: &Registry, lane: u32) -> Self {
        let index = lane.to_string();
        let labels: &[(&str, &str)] = &[("lane", &index)];
        LaneMetrics {
            frames_written: registry.counter_with("store_frames_written_total", labels),
            bytes_written: registry.counter_with("store_bytes_written_total", labels),
            rotations: registry.counter_with("store_rotations_total", labels),
        }
    }

    pub(crate) fn disabled(lane: u32) -> Self {
        Self::from_registry(&Registry::disabled(), lane)
    }
}

/// An append-only writer for one store lane (one shard/stream of a run).
///
/// Implements [`EventSink`], so it plugs directly into a
/// `ReductionSession` or (one per stream) a `FleetReducer`. Every
/// recorded window becomes one CRC-framed record in the lane's current
/// segment file; segments rotate by size and/or window count; a sidecar
/// index maps window ids and timestamp ranges to exact byte offsets for
/// seekable replay.
///
/// Frames are written straight through to the file (one `write` per
/// recorded window), so a process that dies without calling
/// [`LaneWriter::close`] loses at most the frame being written at that
/// instant — reopen detects and truncates such torn tails via the CRC.
/// `close` (or [`LaneWriter::sync`]) additionally persists the sidecar
/// index; after a crash the index is rebuilt from the segment files.
///
/// Creating a writer on a directory that already holds the lane's
/// segments **resumes** it: existing segments are recovered (torn tails
/// truncated), numbering continues after the highest existing segment,
/// and the sidecar picks up the recovered windows. See
/// [`LaneWriter::recovery`].
///
/// A writer stores each payload verbatim (format v1); a lane is
/// compressed after it is closed, by a [`crate::Compactor`] pass.
///
/// ```rust
/// use endurance_store::{CodecId, Compactor, LaneWriter, MaintenancePolicy, StoreConfig, StoreReader};
/// use trace_model::{EventSink, EventTypeId, Timestamp, TraceEvent};
///
/// # fn main() -> Result<(), trace_model::TraceError> {
/// let dir = std::env::temp_dir().join(format!("lane-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default())?;
/// let events: Vec<TraceEvent> = (0..200)
///     .map(|i| TraceEvent::new(Timestamp::from_micros(i * 500), EventTypeId::new(0), i as u32))
///     .collect();
/// writer.record(&events)?;
/// assert_eq!(writer.recorded_events(), 200);
/// writer.close()?; // flush + sidecar: the store reopens clean
///
/// // Compress the closed lane; replay stays byte-for-byte lossless.
/// let policy = MaintenancePolicy::disabled().with_recompress(CodecId::DeltaVarint);
/// Compactor::new(&dir, policy).compact()?;
/// let reader = StoreReader::open(&dir)?;
/// assert!(reader.recovery().clean);
/// assert_eq!(reader.lane_events(0)?, events);
/// assert!(reader.total_stored_bytes() < reader.total_payload_bytes());
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LaneWriter {
    dir: PathBuf,
    lane: u32,
    config: StoreConfig,
    file: Option<File>,
    /// Sequence of the currently open segment.
    seq: u32,
    segment_bytes: u64,
    segment_windows: u64,
    index: LaneIndex,
    recovery: RecoveryReport,
    /// Synthetic window ids for batches recorded without [`RecordMeta`]
    /// (the plain `record`/`record_encoded` paths).
    synthetic_next: u64,
    encoder: BinaryEncoder,
    scratch_frame: Vec<u8>,
    scratch_payload: Vec<u8>,
    events_recorded: usize,
    bytes_on_disk: u64,
    /// Rendering of the first write failure. A failed `write_all` may
    /// have advanced the file past the writer's committed offsets, so the
    /// error is sticky: further appends would file index entries at wrong
    /// offsets and are refused instead. Reopening recovers cleanly — the
    /// scanner treats the partial frame as a torn tail.
    poisoned: Option<String>,
    /// Commit watermarks published to live followers (see
    /// [`LaneWriter::commit_log`]).
    commit: CommitLog,
    /// Metric handles (detached no-ops until
    /// [`LaneWriter::with_metrics`] installs an enabled registry).
    metrics: LaneMetrics,
    /// Whether the listing taken at `create` saw the lane's legacy JSON
    /// sidecar; the first sidecar write removes it.
    legacy_sidecar: bool,
}

impl LaneWriter {
    /// Creates (or resumes) the writer for `lane` inside `dir`, creating
    /// the directory if needed.
    ///
    /// Existing segments of this lane are recovered first: every frame is
    /// CRC-validated, torn tails are truncated, and writing resumes in a
    /// fresh segment numbered after the highest recovered one.
    ///
    /// Finding this lane's files takes one listing of the whole flat
    /// directory, so creating `L` lanes this way reads O(`L`²) entries.
    /// That is the right call for a lane or a handful; a process that
    /// creates lanes by the thousand opens the directory once with
    /// [`crate::StoreWriter`] and takes its writers from
    /// [`crate::StoreWriter::lane`], which lists only for lanes that can
    /// have files and builds the same writer either way.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on filesystem failures and
    /// [`TraceError::Decode`] when an existing segment is corrupt beyond
    /// a torn tail (wrong magic or mismatched lane header).
    pub fn create(
        dir: impl AsRef<Path>,
        lane: u32,
        config: StoreConfig,
    ) -> Result<Self, TraceError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let files = list_lane(&dir, lane)?;
        Self::create_from(dir, lane, config, files)
    }

    /// The one constructor: recovers and resumes the lane over `files`,
    /// what a listing of the (existing) directory `dir` saw of it — or
    /// nothing at all, for a lane [`crate::StoreWriter`] knows to be new.
    pub(crate) fn create_from(
        dir: PathBuf,
        lane: u32,
        config: StoreConfig,
        files: LaneFiles,
    ) -> Result<Self, TraceError> {
        // Finish (or roll back) a merge a crashed maintenance pass left
        // half-done, and delete what a committed pack superseded, so the
        // scan below sees one consistent layout.
        let existing = crate::compact::recover_interrupted_merge(&dir, lane, &files)?;
        let packed = files.packed_segment().copied();
        let (index, torn_tails) = scan_lane(&dir, lane, &existing, packed.as_ref())?;
        truncate_torn(&dir, &torn_tails)?;
        // A resume is a recovery even without torn tails: the sidecar may
        // predate the crash, so it is rebuilt from the scan.
        let resumed = !existing.is_empty() || files.packed.is_some();
        let recovery = RecoveryReport {
            lanes: usize::from(resumed),
            clean: !resumed,
            windows: index.windows.len() as u64,
            events: index.total_events(),
            torn_tails,
            ..RecoveryReport::default()
        };
        // Numbering goes on past the lane's own files and past the packed
        // segment, which stands for every file numbered up to it.
        let last_seq = files.packed.as_ref().map(|packed| packed.segment.seq);
        let next_seq = existing
            .last()
            .copied()
            .max(last_seq)
            .map_or(0, |seq| seq + 1);
        let bytes_on_disk = index.segments.iter().map(|meta| meta.committed_bytes).sum();
        // Synthetic ids continue past every recovered id, so meta-less
        // records appended after a resume never collide with (and shadow)
        // pre-crash entries in the index. Sessions supplying real window
        // ids restart numbering per run, and a lookup by id answers with
        // the latest run's (`docs/FORMAT.md` §4) — give each run its own
        // lane when id lookup across runs matters.
        let synthetic_next = index
            .windows
            .iter()
            .map(|entry| entry.window_id + 1)
            .max()
            .unwrap_or(0);
        // Publish the recovered state to live followers before the first
        // append: every recovered segment is final (writing resumes in a
        // fresh one), so followers may read each to exactly its scanned
        // committed length — torn tails are already truncated above.
        let commit = CommitLog::new(lane, packed);
        for meta in &index.segments {
            commit.seal(meta.seq, meta.committed_bytes);
        }
        commit.publish(trace_model::CommitWatermark {
            lane,
            segment: next_seq,
            committed_bytes: 0,
            windows: index.windows.len() as u64,
        });
        Ok(LaneWriter {
            dir,
            lane,
            config,
            file: None,
            seq: next_seq,
            segment_bytes: 0,
            segment_windows: 0,
            index,
            recovery,
            synthetic_next,
            encoder: BinaryEncoder::new(),
            scratch_frame: Vec::new(),
            scratch_payload: Vec::new(),
            events_recorded: 0,
            bytes_on_disk,
            poisoned: None,
            commit,
            metrics: LaneMetrics::disabled(lane),
            legacy_sidecar: files.legacy_sidecar,
        })
    }

    /// Installs a metrics registry; the writer reports
    /// `store_frames_written_total`, `store_bytes_written_total` and
    /// `store_rotations_total` (labelled `{lane="i"}`) into it. Install
    /// right after [`LaneWriter::create`], before recording, for exact
    /// totals.
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = LaneMetrics::from_registry(registry, self.lane);
        self
    }

    /// The lane's commit-watermark channel: live followers ([`crate::Tailer`],
    /// or a subscription in `endurance-serve`) clone this and block on it
    /// instead of poll-scanning segment files. The writer publishes a new
    /// watermark after every durable append, seals each segment's final
    /// length at rotation, and closes the log when it is dropped. Nothing
    /// it has published is ever taken back: while this writer lives, the
    /// lane is append-only (`docs/FORMAT.md` §6).
    pub fn commit_log(&self) -> CommitLog {
        self.commit.clone()
    }

    /// The lane this writer appends to.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// The directory holding the lane's files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What [`LaneWriter::create`] found on disk: windows/events recovered
    /// from existing segments and any torn tails it truncated. Empty (zero
    /// lanes) when the lane was brand new.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Windows currently indexed on disk (including any recovered on
    /// resume).
    pub fn windows_written(&self) -> u64 {
        self.index.windows.len() as u64
    }

    /// Total committed segment bytes on disk (headers + frames).
    pub fn bytes_on_disk(&self) -> u64 {
        self.bytes_on_disk
    }

    fn current_segment_path(&self) -> PathBuf {
        self.dir.join(segment_file_name(self.lane, self.seq))
    }

    /// The current segment file, opening the next one and writing its
    /// header when none is open.
    fn open_segment(&mut self) -> Result<&mut File, TraceError> {
        let file = match self.file.take() {
            Some(file) => file,
            None => {
                let path = self.current_segment_path();
                // `create_new` is what refuses a lane made behind the write
                // handle (`docs/FORMAT.md` §1); name the file that was there.
                let mut file = OpenOptions::new()
                    .create_new(true)
                    .write(true)
                    .open(&path)
                    .map_err(|error| {
                        std::io::Error::new(error.kind(), format!("{}: {error}", path.display()))
                    })?;
                file.write_all(&segment_header(self.lane, self.seq, SEGMENT_VERSION_V1))?;
                self.segment_bytes = SEGMENT_HEADER_LEN;
                self.segment_windows = 0;
                self.bytes_on_disk += SEGMENT_HEADER_LEN;
                self.index.segments.push(SegmentMeta {
                    seq: self.seq,
                    committed_bytes: SEGMENT_HEADER_LEN,
                    version: SEGMENT_VERSION_V1,
                });
                file
            }
        };
        Ok(self.file.insert(file))
    }

    /// Closes the current segment (flushing it durably) and advances the
    /// sequence number.
    fn rotate(&mut self) -> Result<(), TraceError> {
        if let Some(file) = self.file.take() {
            file.sync_all()?;
            // The closed segment never grows again: record its final
            // length so followers that missed intermediate watermarks
            // still know exactly where its committed frames end.
            self.commit.seal(self.seq, self.segment_bytes);
            self.seq += 1;
            self.metrics.rotations.inc();
        }
        Ok(())
    }

    /// Whether writing `frame_len` more bytes calls for a rotation first.
    fn needs_rotation(&self, frame_len: u64) -> bool {
        self.file.is_some()
            && self.segment_windows > 0
            && (self.segment_windows >= self.config.segment_max_windows
                || self.segment_bytes + frame_len > self.config.segment_max_bytes)
    }

    /// Appends one framed window record.
    fn append(
        &mut self,
        window_id: u64,
        start_ns: u64,
        end_ns: u64,
        events: &[TraceEvent],
        payload: &[u8],
    ) -> Result<(), TraceError> {
        if let Some(message) = &self.poisoned {
            return Err(TraceError::Io(std::io::Error::other(message.clone())));
        }
        if payload.len() > MAX_FRAME_BLOCK {
            // Refused before a byte is written, so the writer goes on.
            return Err(TraceError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "lane {}: a {}-byte window is past the frame limit",
                    self.lane,
                    payload.len()
                ),
            )));
        }
        let mut entry = WindowEntry {
            window_id,
            start_ns,
            end_ns,
            events: events.len() as u32,
            segment: self.seq,
            offset: 0,
            len: 0,
            codec: CodecId::Identity.as_u8(),
            raw_len: payload.len() as u32,
        };
        // A v1 frame is coded against nothing, so its bytes do not depend
        // on the segment it lands in; rotation decides on their length.
        let (v1, prev) = (SEGMENT_VERSION_V1, FramePrev::default());
        entry.len = encode_frame(v1, &mut self.scratch_frame, prev, &entry, payload);
        let frame_len = self.scratch_frame.len() as u64;
        if self.needs_rotation(frame_len) {
            self.rotate()?;
            entry.segment = self.seq;
        }
        entry.offset = if self.file.is_some() {
            self.segment_bytes
        } else {
            SEGMENT_HEADER_LEN
        };
        let frame = std::mem::take(&mut self.scratch_frame);
        let result = self.open_segment().and_then(|file| {
            file.write_all(&frame)?;
            Ok(())
        });
        self.scratch_frame = frame;
        if let Err(error) = result {
            // A partial write may have advanced the file past our
            // committed offsets; refuse further appends so the index can
            // never point into the garbage (reopen recovers via the CRC
            // scanner).
            self.poisoned = Some(error.to_string());
            return Err(error);
        }
        self.segment_bytes += frame_len;
        self.segment_windows += 1;
        self.bytes_on_disk += frame_len;
        self.events_recorded += events.len();
        self.metrics.frames_written.inc();
        self.metrics.bytes_written.add(frame_len);
        // `open_segment` pushed the meta of the segment just written to.
        if let Some(meta) = self.index.segments.last_mut() {
            meta.committed_bytes = self.segment_bytes;
        }
        self.index.windows.push(entry);
        // The frame is fully on disk (one write_all): commit it to live
        // followers. A failed append publishes nothing, so followers
        // never read past the last good frame.
        self.commit.publish(trace_model::CommitWatermark {
            lane: self.lane,
            segment: entry.segment,
            committed_bytes: self.segment_bytes,
            windows: self.index.windows.len() as u64,
        });
        Ok(())
    }

    /// Synthesises record metadata for the meta-less sink paths from the
    /// batch's timestamps and a per-lane counter.
    fn synthetic_meta(&mut self, events: &[TraceEvent]) -> (u64, u64, u64) {
        let id = self.synthetic_next;
        self.synthetic_next += 1;
        let start = events.first().map_or(0, |ev| ev.timestamp.as_nanos());
        let end = events
            .last()
            .map_or(start, |ev| ev.timestamp.as_nanos() + 1);
        (id, start, end)
    }

    /// Persists the sidecar index; the segment files themselves are
    /// already durable up to the last completed frame.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on filesystem failures, or the original
    /// failure when the writer is poisoned (a failed append): the
    /// in-memory index may no longer describe the disk, and overwriting
    /// the last good sidecar with it would only destroy information —
    /// reopen recovers by rescanning instead.
    pub fn sync(&mut self) -> Result<(), TraceError> {
        if let Some(message) = &self.poisoned {
            return Err(TraceError::Io(std::io::Error::other(message.clone())));
        }
        if let Some(file) = self.file.as_mut() {
            file.sync_all()?;
        }
        debug_assert_eq!(self.index.schema, SIDECAR_SCHEMA);
        write_sidecar(&self.dir, &self.index, self.legacy_sidecar)?;
        self.legacy_sidecar = false;
        Ok(())
    }

    /// Flushes everything and writes the sidecar index; after a clean
    /// close, reopening the store trusts the sidecar without rescanning.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on filesystem failures.
    pub fn close(mut self) -> Result<(), TraceError> {
        self.sync()?;
        self.file = None;
        Ok(())
    }
}

impl Drop for LaneWriter {
    /// Closes the commit log, waking any live follower: after a clean
    /// [`LaneWriter::close`] *or* a crash-style drop, the last published
    /// watermark marks the exact end of the committed data (a torn
    /// in-flight frame is past the watermark by construction).
    fn drop(&mut self) {
        self.commit.close();
    }
}

impl EventSink for LaneWriter {
    fn record(&mut self, events: &[TraceEvent]) -> Result<(), TraceError> {
        let mut payload = std::mem::take(&mut self.scratch_payload);
        payload.clear();
        let result = self.encoder.encode(events, &mut payload).and_then(|()| {
            let (id, start, end) = self.synthetic_meta(events);
            self.append(id, start, end, events, &payload)
        });
        self.scratch_payload = payload;
        result
    }

    fn record_encoded(&mut self, events: &[TraceEvent], encoded: &[u8]) -> Result<(), TraceError> {
        let (id, start, end) = self.synthetic_meta(events);
        self.append(id, start, end, events, encoded)
    }

    fn record_window(
        &mut self,
        meta: &RecordMeta,
        events: &[TraceEvent],
        encoded: &[u8],
    ) -> Result<(), TraceError> {
        self.append(
            meta.window_id.index(),
            meta.start.as_nanos(),
            meta.end.as_nanos(),
            events,
            encoded,
        )
    }

    fn recorded_events(&self) -> usize {
        self.events_recorded
    }

    fn recorded_bytes(&self) -> usize {
        // What actually lands on the storage device: headers + frames.
        self.bytes_on_disk as usize
    }
}
