//! # endurance-store
//!
//! Durable segment storage for recorded endurance traces.
//!
//! The reduction engine in `endurance-core` turns a multi-day trace into
//! a small set of anomalous windows — but until those windows land on
//! disk, a process restart loses the run. This crate is the persistence
//! subsystem:
//!
//! * [`LaneWriter`] — an append-only, CRC-framed segment writer for one
//!   lane (one shard/stream). It implements
//!   [`trace_model::EventSink`], so a `ReductionSession` (or one lane per
//!   stream of a `FleetReducer`) records straight to disk, on the
//!   thread that runs the session — the store spawns no thread. Segments
//!   rotate by size and/or window count ([`StoreConfig`]); a sidecar
//!   index maps window ids and timestamp ranges to exact byte offsets.
//!   [`StoreWriter`] is the directory opened for writing: it lists it
//!   once and hands out the writers of a fleet's thousands of lanes
//!   without listing it again for a lane that cannot have files.
//!   A writer appends each payload as the recorder encoded it, in
//!   format-v1 files; it compresses nothing, and it refuses a payload
//!   too long for a frame before writing a byte of it.
//! * [`StoreReader`] — reopens a store directory, recovering after a
//!   crash: every frame is length- and CRC-validated, torn tail writes
//!   are detected (and truncated by a resuming writer or the compactor,
//!   through one scan and one truncation), and the
//!   [`RecoveryReport`] says exactly what survived — and why any lane's
//!   sidecar was declined ([`FallbackReason`]). Lane sidecars (binary,
//!   CRC-sealed `laneNNNN.idx` files) load lazily — replaying one lane of
//!   a fleet store decodes one index, not all of them. Replay is lazy ([`LaneReplay`] implements
//!   [`trace_model::EventSource`]) or seekable per window via the index.
//!   Every cold query has one body, in the reader, and every read goes
//!   through the [`SegmentCache`]: segments loaded once into contiguous
//!   buffers, frames handed out as zero-copy slices CRC-validated on
//!   first touch.
//! * [`Compactor`] / [`MaintenancePolicy`] — the store's maintenance
//!   pass: runs of small adjacent segments are merged into consolidated
//!   ones (stored blocks carried over verbatim and re-framed by one run
//!   writer, sidecar rewritten atomically) and
//!   windows past a retention horizon are dropped, keeping reopen and
//!   replay costs flat on week-long runs. It is also the one place a
//!   frame is compressed: a pass with a recompression target — any
//!   [`CodecId`] but `Identity`
//!   ([`MaintenancePolicy::with_recompress`]) — re-encodes v1 segments into
//!   format-v3 files that shrink what each window costs on disk — the
//!   block losslessly, stored as the smallest of its `EDV` block,
//!   packed rows coded against the frame's own meta and the payload
//!   itself (as [`trace_model::codec::BlockChooser`] picks it), and the
//!   frame around it by coding its meta against the frame before — or
//!   into format-v4 files, when the window shapes a segment repeats pay
//!   for a template table stored once ahead of its frames
//!   ([`trace_model::codec::SegmentCoder`]). It is
//!   the one thing that rewrites a lane and runs on lanes no writer
//!   holds: a live lane is append-only. Its workers are the caller's
//!   thread and, past one, scoped threads joined before it returns.
//! * [`Snapshot`] / [`Tailer`] / [`CommitLog`] — the live read side. A
//!   [`Snapshot`] is an immutable, cheaply cloneable view of everything
//!   committed at a point in time: a shared [`StoreReader`] whose every
//!   lane is loaded, answering the reader's own queries from the same
//!   segment buffers. A [`Tailer`] follows a lane
//!   *while a writer appends*, waking on the writer's [`CommitLog`]
//!   watermarks and reading only sidecar-committed, CRC-verified frames
//!   — never a torn tail, never a poll-scan, never a byte past a
//!   published bound. The `endurance-serve` crate's subscriptions are
//!   these primitives plus a registry of who writes which lane.
//!
//! ## Record, crash, reopen, replay
//!
//! ```rust
//! use endurance_store::{LaneWriter, StoreConfig, StoreReader};
//! use trace_model::{EventSink, EventTypeId, Timestamp, TraceEvent};
//!
//! # fn main() -> Result<(), trace_model::TraceError> {
//! let dir = std::env::temp_dir().join(format!("estore-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default())?;
//! let events = vec![TraceEvent::new(Timestamp::from_micros(10), EventTypeId::new(1), 7)];
//! writer.record(&events)?;
//! drop(writer); // "crash": no close, no sidecar
//!
//! let reader = StoreReader::open(&dir)?;
//! assert!(!reader.recovery().clean); // recovered by the CRC scanner
//! assert_eq!(reader.lane_events(0)?, events);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```
//!
//! The on-disk layout — segment and frame formats (v1, v2, v3 and v4), codec
//! block formats, the sidecar index, the compaction journal and the
//! crash-recovery state machine — is specified normatively in
//! `docs/FORMAT.md` at the repository root.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod commit;
mod compact;
mod crc32;
mod index;
mod lane;
mod map;
mod pack;
mod reader;
mod segment;
mod snapshot;
mod tail;
mod writer;

pub use commit::{CommitLog, CommitView};
pub use compact::{CompactionReport, Compactor, LaneCompaction, MaintenancePolicy};
pub use crc32::{crc32, crc32_scalar};
pub use index::{
    FallbackReason, LaneIndex, RecoveryReport, SegmentMeta, SidecarFallback, TornTail, WindowEntry,
};
pub use lane::{LaneWriter, StoreConfig};
pub use map::SegmentCache;
pub use reader::{LaneReplay, StoreReader};
pub use snapshot::Snapshot;
pub use tail::{TailStep, TailWindow, Tailer};
pub use writer::StoreWriter;
// Re-exported so a recompression target does not force a trace-model import.
pub use trace_model::codec::CodecId;

#[cfg(test)]
mod tests {
    use super::*;
    use trace_model::{
        EventSink, EventSource, EventTypeId, RecordMeta, Timestamp, TraceEvent, WindowId,
    };

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("endurance-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn ev(us: u64, ty: u16) -> TraceEvent {
        TraceEvent::new(Timestamp::from_micros(us), EventTypeId::new(ty), 0)
    }

    fn window_batch(id: u64, base_us: u64, count: usize) -> (RecordMeta, Vec<TraceEvent>, Vec<u8>) {
        use trace_model::codec::{BinaryEncoder, TraceEncoder};
        let events: Vec<TraceEvent> = (0..count)
            .map(|i| ev(base_us + i as u64 * 10, (i % 3) as u16))
            .collect();
        let mut encoded = Vec::new();
        BinaryEncoder::new().encode(&events, &mut encoded).unwrap();
        let meta = RecordMeta {
            window_id: WindowId::new(id),
            start: Timestamp::from_micros(base_us),
            end: Timestamp::from_micros(base_us + 1_000),
        };
        (meta, events, encoded)
    }

    #[test]
    fn clean_close_round_trips_and_trusts_the_sidecar() {
        let dir = temp_dir("clean");
        let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
        let mut all_events = Vec::new();
        let mut all_bytes = Vec::new();
        for id in 0..5u64 {
            let (meta, events, encoded) = window_batch(id, id * 2_000, 20);
            writer.record_window(&meta, &events, &encoded).unwrap();
            all_events.extend(events);
            all_bytes.extend(encoded);
        }
        assert_eq!(writer.recorded_events(), 100);
        assert_eq!(writer.windows_written(), 5);
        writer.close().unwrap();

        let reader = StoreReader::open(&dir).unwrap();
        assert!(reader.recovery().clean, "sidecar must be trusted as-is");
        assert!(reader.recovery().torn_tails.is_empty());
        assert_eq!(reader.lane_ids(), vec![0]);
        assert_eq!(reader.total_events(), 100);
        assert_eq!(reader.lane_events(0).unwrap(), all_events);
        assert_eq!(reader.lane_payload_bytes(0).unwrap(), all_bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_without_close_is_recovered_by_the_scanner() {
        let dir = temp_dir("crash");
        let mut writer = LaneWriter::create(&dir, 3, StoreConfig::default()).unwrap();
        let (meta, events, encoded) = window_batch(7, 0, 12);
        writer.record_window(&meta, &events, &encoded).unwrap();
        drop(writer); // simulated crash: sidecar never written

        let reader = StoreReader::open(&dir).unwrap();
        assert!(!reader.recovery().clean);
        assert_eq!(reader.recovery().windows, 1);
        assert_eq!(reader.recovery().events, 12);
        assert!(reader.recovery().torn_tails.is_empty());
        assert_eq!(reader.lane_events(3).unwrap(), events);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn windowed_replay_seeks_by_id_and_range() {
        let dir = temp_dir("seek");
        let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
        let mut batches = Vec::new();
        for id in 0..6u64 {
            // Window id 2*id so ids are non-contiguous, spanning 2 ms each.
            let (meta, events, encoded) = window_batch(2 * id, id * 2_000, 5 + id as usize);
            writer.record_window(&meta, &events, &encoded).unwrap();
            batches.push((meta, events));
        }
        writer.close().unwrap();

        let reader = StoreReader::open(&dir).unwrap();
        // Seek one window by id.
        let got = reader.window_events(0, WindowId::new(6)).unwrap().unwrap();
        assert_eq!(got, batches[3].1);
        assert!(reader.window_events(0, WindowId::new(5)).unwrap().is_none());
        // Range replay returns exactly the overlapping windows, in order.
        let ranged = reader
            .windows_in_range(
                0,
                Timestamp::from_micros(2_500),
                Timestamp::from_micros(7_000),
            )
            .unwrap();
        let ids: Vec<u64> = ranged.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![2, 4, 6]);
        for (id, events) in &ranged {
            let expected = &batches[(id.index() / 2) as usize].1;
            assert_eq!(events, expected);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_rotate_and_resume_numbering_after_reopen() {
        let dir = temp_dir("rotate");
        let config = StoreConfig::default().with_segment_max_windows(2);
        let mut writer = LaneWriter::create(&dir, 1, config).unwrap();
        for id in 0..5u64 {
            let (meta, events, encoded) = window_batch(id, id * 2_000, 8);
            writer.record_window(&meta, &events, &encoded).unwrap();
        }
        writer.close().unwrap();
        // 5 windows at 2 per segment -> 3 segments.
        let files = crate::segment::list_store_dir(&dir, None).unwrap().lanes;
        assert_eq!(files[&1].seqs, [0, 1, 2]);
        assert!(dir.join("lane0001-000002.seg").exists());

        // Resume: numbering continues at 3, prior windows are recovered.
        let mut writer = LaneWriter::create(&dir, 1, config).unwrap();
        assert_eq!(writer.recovery().windows, 5);
        let (meta, events, encoded) = window_batch(5, 10_000, 8);
        writer.record_window(&meta, &events, &encoded).unwrap();
        writer.close().unwrap();
        assert!(dir.join("lane0001-000003.seg").exists());

        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.lane_windows(1).unwrap().len(), 6);
        assert_eq!(reader.total_events(), 6 * 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_by_bytes_keeps_every_frame() {
        let dir = temp_dir("bytes");
        let config = StoreConfig::default().with_segment_max_bytes(256);
        let mut writer = LaneWriter::create(&dir, 0, config).unwrap();
        let mut total = 0usize;
        for id in 0..20u64 {
            let (meta, events, encoded) = window_batch(id, id * 2_000, 10);
            writer.record_window(&meta, &events, &encoded).unwrap();
            total += events.len();
        }
        writer.close().unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.total_events(), total as u64);
        assert!(
            reader
                .lane_windows(0)
                .unwrap()
                .iter()
                .map(|w| w.segment)
                .max()
                > Some(0),
            "a 256-byte limit must have forced rotations"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plain_record_paths_synthesise_metadata() {
        let dir = temp_dir("plain");
        let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
        writer.record(&[ev(100, 0), ev(200, 1)]).unwrap();
        let (_, events, encoded) = window_batch(0, 5_000, 3);
        writer.record_encoded(&events, &encoded).unwrap();
        writer.close().unwrap();

        let reader = StoreReader::open(&dir).unwrap();
        let windows = reader.lane_windows(0).unwrap();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].window_id, 0);
        assert_eq!(windows[1].window_id, 1);
        assert_eq!(windows[0].start_ns, 100_000);
        assert_eq!(reader.total_events(), 5);

        // Resume: synthetic ids continue past the recovered ones instead
        // of colliding with (and shadowing) them in the index.
        let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
        writer.record(&[ev(9_000, 0)]).unwrap();
        writer.close().unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        let ids: Vec<u64> = reader
            .lane_windows(0)
            .unwrap()
            .iter()
            .map(|w| w.window_id)
            .collect();
        assert_eq!(ids, vec![0, 1, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lane_replay_is_a_lazy_event_source() {
        let dir = temp_dir("replay");
        let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
        let mut all = Vec::new();
        for id in 0..4u64 {
            let (meta, events, encoded) = window_batch(id, id * 2_000, 6);
            writer.record_window(&meta, &events, &encoded).unwrap();
            all.extend(events);
        }
        writer.close().unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        let mut replay = reader.replay_lane(0).unwrap();
        let mut got = Vec::new();
        while let Some(event) = replay.next_event() {
            got.push(event);
        }
        assert!(replay.error().is_none());
        assert_eq!(got, all);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multiple_lanes_in_one_directory_stay_separate() {
        let dir = temp_dir("lanes");
        let mut writers: Vec<LaneWriter> = (0..3)
            .map(|lane| LaneWriter::create(&dir, lane, StoreConfig::default()).unwrap())
            .collect();
        for (lane, writer) in writers.iter_mut().enumerate() {
            let (meta, events, encoded) = window_batch(0, lane as u64 * 1_000, lane + 1);
            writer.record_window(&meta, &events, &encoded).unwrap();
        }
        for writer in writers {
            writer.close().unwrap();
        }
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.lane_ids(), vec![0, 1, 2]);
        for lane in 0..3u32 {
            assert_eq!(
                reader.lane_events(lane).unwrap().len(),
                lane as usize + 1,
                "lane {lane}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_bytes_inside_a_segment_are_reported_as_a_torn_tail() {
        let dir = temp_dir("corrupt");
        let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
        for id in 0..3u64 {
            let (meta, events, encoded) = window_batch(id, id * 2_000, 10);
            writer.record_window(&meta, &events, &encoded).unwrap();
        }
        drop(writer);
        // Flip a byte in the middle of the last frame's payload.
        let path = dir.join("lane0000-000000.seg");
        let mut bytes = std::fs::read(&path).unwrap();
        let len = bytes.len();
        bytes[len - 10] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();

        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.recovery().windows, 2, "the corrupt frame is dropped");
        assert_eq!(reader.recovery().torn_tails.len(), 1);
        assert!(reader.recovery().torn_tails[0].dropped_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Lane 0 as two closed segments of three windows each; returns the
    /// recorded events.
    fn write_two_segment_lane(dir: &std::path::Path, lane: u32) -> Vec<TraceEvent> {
        let config = StoreConfig::default().with_segment_max_windows(3);
        let mut writer = LaneWriter::create(dir, lane, config).unwrap();
        let mut all_events = Vec::new();
        for id in 0..6u64 {
            let (meta, events, encoded) = window_batch(id, id * 2_000, 10 + id as usize);
            writer.record_window(&meta, &events, &encoded).unwrap();
            all_events.extend(events);
        }
        writer.close().unwrap();
        all_events
    }

    #[test]
    fn no_damage_to_a_sidecar_survives_reopen() {
        let dir = temp_dir("idx-damage");
        write_two_segment_lane(&dir, 0);
        let intact = reader::load_lane(&dir, 0, &[0, 1], None).unwrap();
        assert_eq!(intact.sidecar, Ok(index::SidecarKind::Binary));
        let path = dir.join("lane0000.idx");
        let bytes = std::fs::read(&path).unwrap();

        // Every truncation, every single-byte flip and every run of 0xFF
        // (1 to 11 bytes, the longest varint and then some) that changes
        // a byte: the scanner runs and rebuilds exactly the index the
        // intact sidecar held.
        let truncations = (0..bytes.len()).map(|len| bytes[..len].to_vec());
        let flips = (0..bytes.len()).map(|at| {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << (at % 8);
            flipped
        });
        let runs = (0..bytes.len())
            .flat_map(|at| (1..=11).map(move |run| (at, at + run)))
            .map(|(from, to)| {
                let mut overwritten = bytes.clone();
                overwritten[from..to.min(bytes.len())].fill(0xFF);
                overwritten
            })
            .filter(|overwritten| *overwritten != bytes);
        for damaged in truncations.chain(flips).chain(runs) {
            std::fs::write(&path, &damaged).unwrap();
            let loaded = reader::load_lane(&dir, 0, &[0, 1], None).unwrap();
            assert!(loaded.sidecar.is_err(), "{} bytes trusted", damaged.len());
            assert_eq!(loaded.index, intact.index);
            assert!(loaded.torn.is_empty());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_sidecar_fallback_reason_is_reported_and_none_loses_a_window() {
        let dir = temp_dir("fallback-reasons");
        let all_events = write_two_segment_lane(&dir, 0);
        write_two_segment_lane(&dir, 1);
        let idx = dir.join("lane0000.idx");
        let intact = std::fs::read(&idx).unwrap();
        let last_segment = dir.join("lane0000-000001.seg");
        let last_segment_bytes = std::fs::read(&last_segment).unwrap();
        let extra_segment = dir.join("lane0000-000002.seg");

        let mut shifted = reader::load_lane(&dir, 0, &[0, 1], None).unwrap().index;
        shifted.windows[4].offset += 1;
        let mut flipped = intact.clone();
        flipped[30] ^= 0x10;
        let mut padded = intact[..intact.len() - 4].to_vec();
        padded.push(0);
        padded.extend_from_slice(&crc32(&padded).to_le_bytes());

        type Damage<'a> = Box<dyn Fn() + 'a>;
        let cases: Vec<(FallbackReason, Damage)> = vec![
            (
                FallbackReason::Missing,
                Box::new(|| std::fs::remove_file(&idx).unwrap()),
            ),
            (
                FallbackReason::Unreadable,
                Box::new(|| std::fs::write(&idx, b"EIDX, no CRC").unwrap()),
            ),
            (
                // Sealed with a good CRC, but a byte past the last row.
                FallbackReason::Unreadable,
                Box::new(|| std::fs::write(&idx, &padded).unwrap()),
            ),
            (
                FallbackReason::BadChecksum,
                Box::new(|| std::fs::write(&idx, &flipped).unwrap()),
            ),
            (
                FallbackReason::UnknownSchema,
                Box::new(|| {
                    std::fs::remove_file(&idx).unwrap();
                    let json = r#"{"schema":9,"lane":0,"segments":[],"windows":[]}"#;
                    std::fs::write(dir.join("lane0000.idx.json"), json).unwrap();
                }),
            ),
            (
                FallbackReason::LaneMismatch,
                Box::new(|| {
                    std::fs::copy(dir.join("lane0001.idx"), &idx).unwrap();
                }),
            ),
            (
                // A rotation after the last sync: one more segment on
                // disk than the sidecar lists.
                FallbackReason::SegmentListMismatch,
                Box::new(|| {
                    let header = segment::segment_header(0, 2, segment::SEGMENT_VERSION_V1);
                    std::fs::write(&extra_segment, header).unwrap();
                }),
            ),
            (
                FallbackReason::LengthMismatch,
                Box::new(|| {
                    let mut torn = last_segment_bytes.clone();
                    torn.extend_from_slice(&[0xEE; 11]);
                    std::fs::write(&last_segment, torn).unwrap();
                }),
            ),
            (
                // Sealed with a good CRC, so only the row check can see it.
                FallbackReason::RowOutOfBounds,
                Box::new(|| std::fs::write(&idx, segment::encode_sidecar(&shifted)).unwrap()),
            ),
        ];
        for (reason, damage) in &cases {
            damage();
            let reader = StoreReader::open(&dir).unwrap();
            let report = reader.recovery();
            assert_eq!(
                report.sidecar_fallbacks,
                [SidecarFallback {
                    lane: 0,
                    reason: *reason
                }],
                "lane 1 stays trusted, lane 0 says why it was not"
            );
            assert!(!report.clean && report.legacy_sidecars.is_empty());
            assert_eq!(report.windows, 12, "{reason:?}");
            assert_eq!(reader.lane_events(0).unwrap(), all_events, "{reason:?}");
            drop(reader);
            // Undo the damage for the next case.
            std::fs::write(&idx, &intact).unwrap();
            std::fs::write(&last_segment, &last_segment_bytes).unwrap();
            let _ = std::fs::remove_file(&extra_segment);
            let _ = std::fs::remove_file(dir.join("lane0000.idx.json"));
        }

        // An older serialized report (no fallback fields) still loads.
        let old = r#"{"lanes":2,"clean":false,"windows":12,"events":9,"torn_tails":[]}"#;
        let report: RecoveryReport = serde_json::from_str(old).unwrap();
        assert!(report.sidecar_fallbacks.is_empty() && report.legacy_sidecars.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_sidecar_is_distrusted_after_further_appends() {
        let dir = temp_dir("stale");
        let config = StoreConfig::default();
        let mut writer = LaneWriter::create(&dir, 0, config).unwrap();
        let (meta, events, encoded) = window_batch(0, 0, 5);
        writer.record_window(&meta, &events, &encoded).unwrap();
        writer.sync().unwrap(); // sidecar now matches one window
        let (meta, events, encoded) = window_batch(1, 2_000, 5);
        writer.record_window(&meta, &events, &encoded).unwrap();
        drop(writer); // crash: sidecar is stale (misses window 1)

        let reader = StoreReader::open(&dir).unwrap();
        assert!(!reader.recovery().clean, "stale sidecar must be rebuilt");
        assert_eq!(reader.recovery().windows, 2, "both windows recovered");
        std::fs::remove_dir_all(&dir).ok();
    }
}
