//! Live tail-following of a lane while a writer appends.
//!
//! A [`Tailer`] replays a lane's committed frames *as they land*: it
//! blocks on the writer's [`CommitLog`](crate::CommitLog) watermarks
//! instead of poll-scanning files, and it only ever reads bytes the
//! writer has reported as committed — a torn in-flight frame, or crash
//! garbage past the committed prefix, is simply outside every bound the
//! tailer will ever use. Each delivered frame is CRC-verified against
//! the header the writer wrote, so a follower's output is byte-for-byte
//! what a cold [`Snapshot`](crate::Snapshot) replay of the same windows
//! produces.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use trace_model::codec::{BinaryDecoder, FrameContext, TraceDecoder};
use trace_model::{TraceError, TraceEvent};

use crate::commit::{CommitLog, CommitView};
use crate::index::WindowEntry;
use crate::map::FrameDecoder;
use crate::pack::{packed_as, read_segment};
use crate::reader::claimed_events;
use crate::segment::{
    read_frame, segment_file_name, FramePrev, FrameRead, SegmentHead, SEGMENT_HEADER_LEN,
};

/// One committed window delivered by a [`Tailer`].
#[derive(Debug, Clone)]
pub struct TailWindow {
    /// The window's index entry, rebuilt from the CRC-protected frame
    /// bytes (identical to what the lane sidecar records for it).
    pub entry: WindowEntry,
    /// The window's original payload — the exact bytes the recorder
    /// handed to the sink, after frame decompression.
    pub payload: Vec<u8>,
}

impl TailWindow {
    /// Decodes the window's events from its payload.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Decode`] when the payload is not a valid
    /// event encoding, or holds another number of events than the
    /// frame claims.
    pub fn events(&self) -> Result<Vec<TraceEvent>, TraceError> {
        let mut events = Vec::with_capacity(claimed_events(self.entry.events.into()));
        let decoded = BinaryDecoder::new().decode_into(&self.payload, &mut events)?;
        FrameContext::framed(self.entry.start_ns, self.entry.events).check_events(decoded)?;
        Ok(events)
    }
}

/// What one [`Tailer::next`] call produced.
#[derive(Debug)]
pub enum TailStep {
    /// The next committed window, exactly once, in commit order.
    Window(TailWindow),
    /// Nothing new was committed within the timeout; call again.
    TimedOut,
    /// The writer closed (cleanly or by dropping) and every committed
    /// window has been delivered. Terminal for this commit log; see
    /// [`Tailer::rebind`] to continue across a writer resume.
    Closed,
}

/// A live follower over one lane's committed frames.
///
/// Created with [`Tailer::follow`] from the writer's commit log (see
/// [`crate::LaneWriter::commit_log`]); starts at the beginning of the
/// lane, so a tailer attached mid-run first drains everything already
/// committed — including windows recovered from a previous process — and
/// then follows live appends. Call [`Tailer::next`] in a loop — or, with
/// a [`CommitView`] already in hand, [`Tailer::poll`].
///
/// A tailer is a cursor, not an activity: it does nothing between calls,
/// opens each of the lane's own segment files once, read-only, and reads
/// exactly up to the committed bound, never a byte past it; a packed
/// segment, sealed whole, it reads whole once. It never coordinates with the
/// writer beyond the commit log, and the log wakes a tailer only while
/// one is blocked waiting for it — so tailers ride along without slowing
/// appends they are not waiting on (`benchmark/`'s `storm`, four
/// followed lanes drained by one thread: an append costs 1.8–2.4 µs,
/// against 2.1 µs on `churn` where almost nobody follows — and 4.9–6.7 µs
/// when every follower was a thread of its own; docs/PERFORMANCE.md §1).
///
/// While a writer holds the lane nothing rewrites it, so the cursor
/// stays valid for the life of that writer. A [`crate::Compactor`] pass
/// runs between writers and a cursor does not survive it: see
/// [`Tailer::rebind`].
#[derive(Debug)]
pub struct Tailer {
    dir: PathBuf,
    lane: u32,
    log: CommitLog,
    /// Segment the cursor is in (`None` until the first segment with
    /// committed data is known).
    seq: Option<u32>,
    /// Byte offset of the next unread frame within that segment.
    offset: u64,
    /// The current segment's own file, opened on the first fill after
    /// [`Tailer::enter`] and left positioned at `buf.len()`.
    file: Option<File>,
    /// Locally buffered prefix of the current segment file: exactly the
    /// bytes up to the bound of the last fill, never one past it.
    buf: Vec<u8>,
    /// The current segment's head — format version and, in v4, template
    /// table — once the first fill has parsed it.
    head: Option<SegmentHead>,
    /// The frame delivered before the cursor in this segment (what a v3
    /// frame is coded against): zero on entering a segment, kept across
    /// [`Tailer::rebind`] — the cursor does not move.
    prev: FramePrev,
    delivered: u64,
    decoder: FrameDecoder,
}

impl Tailer {
    /// Attaches a follower to `log`, reading segment files from the
    /// store directory `dir`. The cursor starts at the beginning of the
    /// lane.
    pub fn follow(dir: impl Into<PathBuf>, log: CommitLog) -> Self {
        Tailer {
            dir: dir.into(),
            lane: log.lane(),
            log,
            seq: None,
            offset: 0,
            file: None,
            buf: Vec::new(),
            head: None,
            prev: FramePrev::default(),
            delivered: 0,
            decoder: FrameDecoder::default(),
        }
    }

    /// The lane this tailer follows.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Windows delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Rebinds the follower to a *new* commit log for the same lane —
    /// the resume path: when a writer crashes and a new
    /// [`crate::LaneWriter`] reopens the lane, the old log reports
    /// [`TailStep::Closed`]; rebinding to the new writer's log lets the
    /// follower continue from its cursor without re-delivering anything.
    /// (The committed prefix it already read is exactly what resume
    /// recovery preserves, so the cursor stays valid.)
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Decode`] when `log` describes a different
    /// lane, or a lane that was rewritten between the two writers: a
    /// resumed writer opens a fresh segment, so it reports the cursor's
    /// segment sealed, at least as long as the cursor is deep. A
    /// successor that does not has taken committed bytes back (a
    /// [`crate::Compactor`] pass merged or dropped the segment and its
    /// number may have been reused); the cursor means nothing in it and
    /// the follower must restart from a fresh [`Snapshot`](crate::Snapshot).
    pub fn rebind(&mut self, log: CommitLog) -> Result<(), TraceError> {
        if log.lane() != self.lane {
            return Err(TraceError::Decode {
                offset: 0,
                reason: format!(
                    "cannot rebind a lane-{} tailer to a lane-{} commit log",
                    self.lane,
                    log.lane()
                ),
            });
        }
        if let Some(seq) = self.seq {
            // Reported, and not the segment the successor appends to.
            let view = log.view();
            let kept = view.watermark.segment != seq
                && view.bound(seq).is_some_and(|bound| bound >= self.offset);
            if !kept {
                return Err(TraceError::Decode {
                    offset: self.offset as usize,
                    reason: format!(
                        "lane {} rewritten between writers: the new writer does not report \
                         segment {seq} sealed at or past the follower's offset {}",
                        self.lane, self.offset
                    ),
                });
            }
        }
        self.log = log;
        // Resume recovery may have truncated (or removed) the segment
        // under the cursor; reopen by name at the next fill.
        self.file = None;
        Ok(())
    }

    /// Delivers the next committed window, waiting up to `timeout` for
    /// the writer when the tailer is caught up.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when a segment file cannot be read and
    /// [`TraceError::Decode`] on a commit-bound/file disagreement (CRC
    /// mismatch, misaligned bound).
    pub fn next(&mut self, timeout: Duration) -> Result<TailStep, TraceError> {
        let deadline = Instant::now() + timeout;
        let mut view = self.log.view();
        loop {
            match self.poll(&view)? {
                TailStep::TimedOut => {}
                step => return Ok(step),
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return Ok(TailStep::TimedOut);
            };
            let newer = self.log.wait_newer(view.version, remaining);
            if newer.version <= view.version && !newer.closed {
                return Ok(TailStep::TimedOut);
            }
            view = newer;
        }
    }

    /// [`Tailer::next`] without the wait: delivers the next window that
    /// `view` — an observation of the commit log this tailer follows —
    /// reports committed, or says there is none in it
    /// ([`TailStep::TimedOut`]; [`TailStep::Closed`] once `view` is the
    /// closed log's last). For a caller that has a view in hand anyway
    /// and does its own waiting on [`CommitLog::wait_newer`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tailer::next`].
    pub fn poll(&mut self, view: &CommitView) -> Result<TailStep, TraceError> {
        debug_assert_eq!(view.watermark.lane, self.lane);
        if let Some(window) = self.advance(view)? {
            self.delivered += 1;
            return Ok(TailStep::Window(window));
        }
        Ok(if view.closed {
            TailStep::Closed
        } else {
            TailStep::TimedOut
        })
    }

    /// Reads the next committed frame within `view`'s bounds, advancing
    /// across sealed segments; `None` when the cursor has consumed
    /// everything the view reports.
    fn advance(&mut self, view: &CommitView) -> Result<Option<TailWindow>, TraceError> {
        loop {
            let seq = match self.seq {
                Some(seq) => seq,
                None => match view.next_segment(None) {
                    Some(seq) => {
                        self.enter(seq);
                        seq
                    }
                    None => return Ok(None),
                },
            };
            let Some(bound) = view.bound(seq) else {
                return Ok(None);
            };
            if self.offset < bound {
                return self.read_frame(seq, bound).map(Some);
            }
            // The cursor sits exactly on the committed bound. If the
            // writer reported a later segment, this one is sealed at
            // `bound` (rotation seals before moving on) — step across.
            match view.next_segment(Some(seq)) {
                Some(next) => self.enter(next),
                None => return Ok(None),
            }
        }
    }

    /// Positions the cursor at the first frame of segment `seq`.
    fn enter(&mut self, seq: u32) {
        self.seq = Some(seq);
        self.offset = SEGMENT_HEADER_LEN;
        self.file = None;
        self.buf.clear();
        self.head = None;
        self.prev = FramePrev::default();
    }

    /// Grows the local buffer to cover exactly `bound` bytes of segment
    /// `seq` — one `read` per advance of the bound, none when the buffer
    /// already covers it — and parses the segment's head once, moving a
    /// cursor at the header's end past a v4 segment's template table.
    /// Bytes past `bound` (an in-flight frame, crash garbage) are never
    /// buffered: a later bound that covers them reads them then. A
    /// segment the lane's writer recovered from a pack is sealed at its
    /// whole length and never grows: it is read whole, once, through
    /// [`read_segment`], as every other reader reads it.
    fn fill_to(&mut self, seq: u32, bound: u64) -> Result<(), TraceError> {
        let have = self.buf.len();
        let packed = packed_as(self.log.packed(), seq);
        if (have as u64) < bound {
            if let Some(packed) = packed {
                // Sealed at its whole length, `13 + B`: the bound.
                self.buf = read_segment(&self.dir, self.lane, seq, Some(packed), None)?.1;
            } else {
                self.buf.resize(bound as usize, 0);
                let opened = match self.file.take() {
                    Some(file) => Ok(file),
                    None => File::open(self.dir.join(segment_file_name(self.lane, seq))).and_then(
                        |mut file| {
                            file.seek(SeekFrom::Start(have as u64))?;
                            Ok(file)
                        },
                    ),
                };
                let read = opened.and_then(|mut file| {
                    file.read_exact(&mut self.buf[have..])?;
                    Ok(file)
                });
                match read {
                    Ok(file) => self.file = Some(file),
                    Err(error) => {
                        // The file position is unspecified after a failed
                        // `read_exact`; a retry reopens and seeks.
                        self.buf.truncate(have);
                        return Err(match error.kind() {
                            std::io::ErrorKind::UnexpectedEof => TraceError::Decode {
                                offset: have,
                                reason: format!(
                                    "lane {} segment {seq} is shorter than its committed bound of {bound} bytes",
                                    self.lane
                                ),
                            },
                            _ => error.into(),
                        });
                    }
                }
            }
        }
        debug_assert!(self.buf.len() as u64 <= bound);
        if self.head.is_none() {
            let path = match packed {
                Some(packed) => packed.path(&self.dir),
                None => self.dir.join(segment_file_name(self.lane, seq)),
            };
            let head = SegmentHead::parse(&self.buf, &path, self.lane, seq)?;
            self.offset = self.offset.max(head.frames_start);
            self.head = Some(head);
        }
        Ok(())
    }

    /// Reads, verifies and decodes the frame at the cursor (which the
    /// caller has checked lies strictly inside `bound`).
    fn read_frame(&mut self, seq: u32, bound: u64) -> Result<TailWindow, TraceError> {
        self.fill_to(seq, bound)?;
        let offset = self.offset;
        let corrupt = |reason: String| TraceError::Decode {
            offset: offset as usize,
            reason,
        };
        let Some(head) = &self.head else {
            return Err(corrupt(format!("segment {seq}: head not parsed")));
        };
        let frame = match read_frame(head.version, &self.buf, offset, true)? {
            FrameRead::Frame(frame) => frame,
            FrameRead::Torn(reason) => {
                return Err(corrupt(format!(
                    "{reason} tailing lane {} segment {seq} offset {offset} under the \
                     committed bound {bound}",
                    self.lane
                )))
            }
        };
        let entry = frame.entry(seq, offset, self.prev);
        let payload = self
            .decoder
            .payload(head, &self.buf, &frame, entry.start_ns)?
            .to_vec();
        self.offset = frame.body.end as u64;
        self.prev = FramePrev::after(&entry);
        Ok(TailWindow { entry, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodecId, Compactor, LaneWriter, MaintenancePolicy, Snapshot, StoreConfig};
    use trace_model::codec::{BinaryEncoder, TraceEncoder};
    use trace_model::{EventSink, EventTypeId, RecordMeta, Timestamp, TraceEvent, WindowId};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("endurance-tail-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(writer: &mut LaneWriter, id: u64, count: usize) -> Vec<u8> {
        record_with(writer, id, count, id as u32)
    }

    /// [`record`], every event carrying `payload`.
    fn record_with(writer: &mut LaneWriter, id: u64, count: usize, payload: u32) -> Vec<u8> {
        let events: Vec<TraceEvent> = (0..count)
            .map(|i| {
                TraceEvent::new(
                    Timestamp::from_micros(id * 1_000 + i as u64 * 10),
                    EventTypeId::new((i % 3) as u16),
                    payload,
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
        encoded
    }

    fn drain(tailer: &mut Tailer) -> Vec<TailWindow> {
        let mut out = Vec::new();
        loop {
            match tailer.next(Duration::from_secs(10)).unwrap() {
                TailStep::Window(window) => out.push(window),
                TailStep::Closed => return out,
                TailStep::TimedOut => panic!("writer is gone; tail must close, not time out"),
            }
        }
    }

    #[test]
    fn a_tailer_started_mid_run_delivers_every_committed_window_once() {
        let dir = temp_dir("midrun");
        let config = StoreConfig::default().with_segment_max_windows(3);
        let mut writer = LaneWriter::create(&dir, 0, config).unwrap();
        let mut payloads = Vec::new();
        for id in 0..5u64 {
            payloads.push(record(&mut writer, id, 4));
        }
        // Attach mid-run: the tailer first drains the backlog...
        let mut tailer = Tailer::follow(&dir, writer.commit_log());
        for id in 5..11u64 {
            payloads.push(record(&mut writer, id, 4));
        }
        writer.close().unwrap();
        let got = drain(&mut tailer);
        let ids: Vec<u64> = got.iter().map(|w| w.entry.window_id).collect();
        assert_eq!(ids, (0..11).collect::<Vec<u64>>());
        for (window, payload) in got.iter().zip(&payloads) {
            assert_eq!(&window.payload, payload);
        }
        assert_eq!(tailer.delivered(), 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Windows `0..ids` of 20 events recorded into lane 0 and the lane
    /// closed, then — unless `version` is 1 — recompressed by a
    /// `Compactor` pass: the way a lane comes to hold compressed frames,
    /// in a v3 segment, or in a v4 one when every window has the same
    /// shape, payloads included. Returns their payloads.
    fn closed_lane(
        dir: &std::path::Path,
        config: StoreConfig,
        ids: u64,
        version: u8,
    ) -> Vec<Vec<u8>> {
        let mut writer = LaneWriter::create(dir, 0, config).unwrap();
        let payloads = (0..ids)
            .map(|id| match version {
                4 => record_with(&mut writer, id, 20, 7),
                _ => record(&mut writer, id, 20),
            })
            .collect();
        writer.close().unwrap();
        if version > 1 {
            let policy = MaintenancePolicy::disabled().with_recompress(CodecId::DeltaVarint);
            let report = Compactor::new(dir, policy).compact().unwrap();
            assert!(report.recompressed_windows() > 0, "{report}");
        }
        // (A pass folds the lane into its first segment.)
        if ids > 0 {
            let first = std::fs::read(dir.join("lane0000-000000.seg")).unwrap();
            assert_eq!(first[4], version);
        }
        payloads
    }

    #[test]
    fn tail_output_matches_a_cold_snapshot_byte_for_byte() {
        for version in [1, 3, 4] {
            let dir = temp_dir(&format!("vs-snap-{version}"));
            let config = StoreConfig::default().with_segment_max_windows(2);
            closed_lane(&dir, config, 4, version);
            // A follower of the resumed lane reads the closed prefix (v1,
            // v3 or v4 — its table ahead of its frames) and then what the
            // new writer appends.
            let mut writer = LaneWriter::create(&dir, 0, config).unwrap();
            let mut tailer = Tailer::follow(&dir, writer.commit_log());
            for id in 4..7u64 {
                record(&mut writer, id, 5 + id as usize);
            }
            writer.close().unwrap();
            let tailed: Vec<u8> = drain(&mut tailer)
                .iter()
                .flat_map(|w| w.payload.clone())
                .collect();
            let snapshot = Snapshot::open(&dir).unwrap();
            assert_eq!(
                tailed,
                snapshot.lane_payload_bytes(0).unwrap(),
                "v{version}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_caught_up_tailer_times_out_then_resumes_on_new_commits() {
        let dir = temp_dir("timeout");
        let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
        record(&mut writer, 0, 3);
        let mut tailer = Tailer::follow(&dir, writer.commit_log());
        assert!(matches!(
            tailer.next(Duration::from_secs(1)).unwrap(),
            TailStep::Window(_)
        ));
        assert!(matches!(
            tailer.next(Duration::from_millis(20)).unwrap(),
            TailStep::TimedOut
        ));
        record(&mut writer, 1, 3);
        assert!(matches!(
            tailer.next(Duration::from_secs(1)).unwrap(),
            TailStep::Window(_)
        ));
        writer.close().unwrap();
        assert!(matches!(
            tailer.next(Duration::from_secs(1)).unwrap(),
            TailStep::Closed
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_garbage_past_the_watermark_is_invisible_and_resume_rebinds() {
        let dir = temp_dir("crash");
        let config = StoreConfig::default().with_segment_max_windows(4);
        let mut writer = LaneWriter::create(&dir, 0, config).unwrap();
        let mut tailer = Tailer::follow(&dir, writer.commit_log());
        for id in 0..3u64 {
            record(&mut writer, id, 4);
        }
        drop(writer); // crash: commit log closes via Drop

        // Smear a torn frame onto the open segment: a header promising
        // more bytes than exist, then garbage.
        let seg = dir.join("lane0000-000000.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(&[0x99, 0x00, 0x00, 0x00, 0xAB, 0xCD, 0xEF, 0x01, 0x44]);
        std::fs::write(&seg, bytes).unwrap();

        // The tailer drains exactly the committed windows and closes —
        // the garbage sits past every bound it will ever use.
        let got = drain(&mut tailer);
        assert_eq!(got.len(), 3);

        // A resuming writer truncates the tear and appends more; the
        // follower rebinds and continues without re-delivery.
        let mut writer = LaneWriter::create(&dir, 0, config).unwrap();
        assert_eq!(writer.recovery().windows, 3);
        tailer.rebind(writer.commit_log()).unwrap();
        record(&mut writer, 3, 4);
        writer.close().unwrap();
        let more = drain(&mut tailer);
        let ids: Vec<u64> = more.iter().map(|w| w.entry.window_id).collect();
        assert_eq!(ids, vec![3]);
        assert_eq!(tailer.delivered(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// FORMAT.md §6 "Bounded reads", literally: bytes lying past the
    /// bound of a fill (here 400 bytes standing in for an in-flight
    /// frame) must not reach the follower's buffer, or a later bound
    /// that covers the same offsets is served from the stale copy —
    /// behind a closed prefix of the lane, plain, compressed or templated.
    #[test]
    fn bytes_past_the_bound_are_never_buffered() {
        use std::io::Write;
        for (prefix, version) in [(0, 1), (1, 1), (1, 3), (3, 4)] {
            let what = format!("prefix {prefix} v{version}");
            let dir = temp_dir(&format!("past-bound-{prefix}-{version}"));
            let config = StoreConfig::default();
            let mut payloads = closed_lane(&dir, config, prefix, version);
            let mut writer = LaneWriter::create(&dir, 0, config).unwrap();
            let mut tailer = Tailer::follow(&dir, writer.commit_log());
            payloads.push(record(&mut writer, prefix, 6));

            let watermark = writer.commit_log().view().watermark;
            let live = format!("lane0000-{:06}.seg", watermark.segment);
            let mut second = std::fs::OpenOptions::new()
                .write(true)
                .open(dir.join(live))
                .unwrap();
            second
                .seek(SeekFrom::Start(watermark.committed_bytes))
                .unwrap();
            second.write_all(&[0xEE; 400]).unwrap();
            drop(second);

            let mut got = Vec::new();
            for id in 0..=prefix {
                match tailer.next(Duration::from_secs(1)).unwrap() {
                    TailStep::Window(window) => got.push(window),
                    other => panic!("{what}: expected window {id}, got {other:?}"),
                }
            }
            assert_eq!(tailer.buf.len() as u64, watermark.committed_bytes, "{what}");

            // The writer's own offset overwrites the smear.
            payloads.push(record(&mut writer, prefix + 1, 6));
            payloads.push(record(&mut writer, prefix + 2, 6));
            writer.close().unwrap();
            got.extend(drain(&mut tailer));
            let ids: Vec<u64> = got.iter().map(|w| w.entry.window_id).collect();
            assert_eq!(ids, (0..prefix + 3).collect::<Vec<u64>>(), "{what}");
            for (window, payload) in got.iter().zip(&payloads) {
                assert_eq!(&window.payload, payload, "{what}");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn rebinding_to_another_lanes_log_is_rejected() {
        let dir = temp_dir("wrong-lane");
        let writer = LaneWriter::create(&dir, 1, StoreConfig::default()).unwrap();
        let other = LaneWriter::create(&dir, 2, StoreConfig::default()).unwrap();
        let mut tailer = Tailer::follow(&dir, writer.commit_log());
        assert!(tailer.rebind(other.commit_log()).is_err());
        drop((writer, other));
        std::fs::remove_dir_all(&dir).ok();
    }
}
