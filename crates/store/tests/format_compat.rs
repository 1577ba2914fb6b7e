//! On-disk format compatibility: a format-v1 store written by the
//! previous release (reconstructed here byte by byte, independent of the
//! current writer) must open, replay byte-for-byte, resume under a
//! codec-configured (v3) writer, and compact — including recompression into a
//! configured codec — without changing a single replayed payload byte.
//! The sidecar's own encodings are pinned here too: the JSON ones of
//! schemas 1 and 2 stay readable and migrate to the binary `.idx`, whose
//! layout a checked-in golden file fixes byte for byte. So are format
//! v2, which nothing writes any more — a directory the last v2-writing
//! build left is carried here as bytes — and format v3, by a golden
//! segment.

mod common;

use proptest::prelude::*;

use common::{dir_contents, segment_files, write_v2_segment, Window};

use endurance_store::{
    crc32, CodecId, Compactor, FallbackReason, LaneWriter, MaintenancePolicy, SidecarFallback,
    StoreConfig, StoreReader,
};
use trace_model::codec::{BinaryEncoder, TraceEncoder};
use trace_model::{EventSink, EventTypeId, RecordMeta, Timestamp, TraceEvent, WindowId};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "endurance-format-compat-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn window_events(id: u64, count: usize) -> Vec<TraceEvent> {
    (0..count as u64)
        .map(|i| {
            TraceEvent::new(
                Timestamp::from_micros(id * 10_000 + i * 250),
                EventTypeId::new(((id + i) % 4) as u16),
                (id * 100 + i) as u32,
            )
        })
        .collect()
}

fn encode(events: &[TraceEvent]) -> Vec<u8> {
    let mut payload = Vec::new();
    BinaryEncoder::new().encode(events, &mut payload).unwrap();
    payload
}

/// One hand-built v1 frame: `[len | crc | id | start | end | count | payload]`.
fn v1_frame(id: u64, events: &[TraceEvent], payload: &[u8]) -> Vec<u8> {
    let start = events.first().map_or(0, |e| e.timestamp.as_nanos());
    let end = events.last().map_or(1, |e| e.timestamp.as_nanos() + 1);
    let mut body = Vec::new();
    body.extend_from_slice(&id.to_le_bytes());
    body.extend_from_slice(&start.to_le_bytes());
    body.extend_from_slice(&end.to_le_bytes());
    body.extend_from_slice(&(events.len() as u32).to_le_bytes());
    body.extend_from_slice(payload);
    let mut frame = Vec::new();
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// Writes a v1 store for lane 0 exactly as the previous release would
/// have: v1 segment files (version byte 1, 28-byte frame meta) holding
/// `windows_per_segment` windows each, plus a schema-1 sidecar with none
/// of the schema-2 fields. Returns each window's `(id, events, payload)`.
fn build_v1_store(
    dir: &std::path::Path,
    segments: u64,
    windows_per_segment: u64,
) -> Vec<(u64, Vec<TraceEvent>, Vec<u8>)> {
    let mut recorded = Vec::new();
    let mut sidecar_segments = String::new();
    let mut sidecar_windows = String::new();
    for seq in 0..segments {
        let mut file = Vec::new();
        file.extend_from_slice(b"ESEG");
        file.push(1); // version 1
        file.extend_from_slice(&0u32.to_le_bytes()); // lane
        file.extend_from_slice(&(seq as u32).to_le_bytes());
        for w in 0..windows_per_segment {
            let id = seq * windows_per_segment + w;
            let events = window_events(id, 4 + (id % 5) as usize * 3);
            let payload = encode(&events);
            let offset = file.len();
            let frame = v1_frame(id, &events, &payload);
            let start = events[0].timestamp.as_nanos();
            let end = events.last().unwrap().timestamp.as_nanos() + 1;
            sidecar_windows.push_str(&format!(
                "{}{{\"window_id\":{id},\"start_ns\":{start},\"end_ns\":{end},\
                 \"events\":{},\"segment\":{seq},\"offset\":{offset},\"len\":{}}}",
                if sidecar_windows.is_empty() { "" } else { "," },
                events.len(),
                frame.len() - 8,
            ));
            file.extend_from_slice(&frame);
            recorded.push((id, events, payload));
        }
        sidecar_segments.push_str(&format!(
            "{}{{\"seq\":{seq},\"committed_bytes\":{}}}",
            if sidecar_segments.is_empty() { "" } else { "," },
            file.len(),
        ));
        std::fs::write(dir.join(format!("lane0000-{seq:06}.seg")), file).unwrap();
    }
    let sidecar = format!(
        "{{\"schema\":1,\"lane\":0,\"segments\":[{sidecar_segments}],\
         \"windows\":[{sidecar_windows}]}}"
    );
    std::fs::write(dir.join("lane0000.idx.json"), sidecar).unwrap();
    recorded
}

fn assert_store_matches(reader: &StoreReader, recorded: &[(u64, Vec<TraceEvent>, Vec<u8>)]) {
    let all_events: Vec<TraceEvent> = recorded
        .iter()
        .flat_map(|(_, events, _)| events.clone())
        .collect();
    let all_bytes: Vec<u8> = recorded
        .iter()
        .flat_map(|(_, _, payload)| payload.clone())
        .collect();
    assert_eq!(reader.lane_events(0).unwrap(), all_events);
    assert_eq!(reader.lane_payload_bytes(0).unwrap(), all_bytes);
    for (id, events, payload) in recorded {
        assert_eq!(
            reader
                .window_events(0, WindowId::new(*id))
                .unwrap()
                .unwrap(),
            *events,
            "window {id}"
        );
        assert_eq!(
            reader
                .window_payload(0, WindowId::new(*id))
                .unwrap()
                .unwrap(),
            *payload,
            "window {id}"
        );
    }
}

/// Writes `windows` windows of 30 events to lane 0 under `codec`, three
/// per segment, and closes the lane.
fn write_closed_lane(
    dir: &std::path::Path,
    codec: CodecId,
    windows: u64,
) -> Vec<(u64, Vec<TraceEvent>, Vec<u8>)> {
    let config = StoreConfig::default()
        .with_codec(codec)
        .with_segment_max_windows(3);
    let mut writer = LaneWriter::create(dir, 0, config).unwrap();
    let mut recorded = Vec::new();
    for id in 0..windows {
        let events = window_events(id, 30);
        let payload = encode(&events);
        let meta = RecordMeta {
            window_id: WindowId::new(id),
            start: events[0].timestamp,
            end: Timestamp::from_nanos(events.last().unwrap().timestamp.as_nanos() + 1),
        };
        writer.record_window(&meta, &events, &payload).unwrap();
        recorded.push((id, events, payload));
    }
    writer.close().unwrap();
    recorded
}

/// Turns lane 0 of a cleanly closed store into what the release before
/// the binary sidecar left behind: a schema-2 `lane0000.idx.json` (the
/// exact text that release's `serde_json::to_string` produced) and no
/// `lane0000.idx`.
fn downgrade_sidecar_to_schema_2_json(dir: &std::path::Path) {
    let reader = StoreReader::open(dir).unwrap();
    assert!(reader.recovery().clean);
    let windows = reader.lane_windows(0).unwrap();
    let mut seqs: Vec<u32> = windows.iter().map(|w| w.segment).collect();
    seqs.dedup();
    let segments: Vec<String> = seqs
        .iter()
        .map(|seq| {
            let bytes = std::fs::read(dir.join(format!("lane0000-{seq:06}.seg"))).unwrap();
            format!(
                "{{\"seq\":{seq},\"committed_bytes\":{},\"version\":{}}}",
                bytes.len(),
                bytes[4]
            )
        })
        .collect();
    let windows: Vec<String> = windows
        .iter()
        .map(|w| {
            format!(
                "{{\"window_id\":{},\"start_ns\":{},\"end_ns\":{},\"events\":{},\
                 \"segment\":{},\"offset\":{},\"len\":{},\"codec\":{},\"raw_len\":{}}}",
                w.window_id,
                w.start_ns,
                w.end_ns,
                w.events,
                w.segment,
                w.offset,
                w.len,
                w.codec,
                w.raw_len
            )
        })
        .collect();
    let json = format!(
        "{{\"schema\":2,\"lane\":0,\"segments\":[{}],\"windows\":[{}]}}",
        segments.join(","),
        windows.join(",")
    );
    std::fs::write(dir.join("lane0000.idx.json"), json).unwrap();
    std::fs::remove_file(dir.join("lane0000.idx")).unwrap();
}

#[test]
fn v1_fixture_opens_cleanly_and_replays_byte_for_byte() {
    let dir = temp_dir("v1-open");
    let recorded = build_v1_store(&dir, 3, 4);
    let before = dir_contents(&dir);
    let reader = StoreReader::open(&dir).unwrap();
    assert!(
        reader.recovery().clean,
        "the schema-1 sidecar must be trusted"
    );
    assert_eq!(reader.recovery().legacy_sidecars, [0]);
    assert!(reader.recovery().sidecar_fallbacks.is_empty());
    assert_eq!(dir_contents(&dir), before, "readers migrate nothing");
    assert_eq!(
        reader.total_events() as usize,
        recorded.iter().map(|(_, e, _)| e.len()).sum::<usize>()
    );
    assert_eq!(
        reader.total_payload_bytes() as usize,
        recorded.iter().map(|(_, _, p)| p.len()).sum::<usize>()
    );
    // v1 frames store payloads verbatim: stored == payload bytes.
    assert_eq!(reader.total_stored_bytes(), reader.total_payload_bytes());
    assert_store_matches(&reader, &recorded);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v1_fixture_without_sidecar_is_rescanned() {
    let dir = temp_dir("v1-scan");
    let recorded = build_v1_store(&dir, 2, 5);
    std::fs::remove_file(dir.join("lane0000.idx.json")).unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    assert!(!reader.recovery().clean);
    assert_store_matches(&reader, &recorded);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v2_writer_resumes_a_v1_store_into_a_mixed_version_lane() {
    let dir = temp_dir("v1-resume");
    let mut recorded = build_v1_store(&dir, 2, 3);

    // Resume under a DeltaVarint-configured writer: old segments stay v1,
    // new ones are v3.
    let config = StoreConfig::default()
        .with_codec(CodecId::DeltaVarint)
        .with_segment_max_windows(2);
    let mut writer = LaneWriter::create(&dir, 0, config).unwrap();
    assert_eq!(writer.recovery().windows, 6);
    for id in 6..11u64 {
        let events = window_events(id, 40);
        let payload = encode(&events);
        let meta = RecordMeta {
            window_id: WindowId::new(id),
            start: events[0].timestamp,
            end: Timestamp::from_nanos(events.last().unwrap().timestamp.as_nanos() + 1),
        };
        writer.record_window(&meta, &events, &payload).unwrap();
        recorded.push((id, events, payload));
    }
    writer.close().unwrap();
    assert!(
        dir.join("lane0000.idx").exists() && !dir.join("lane0000.idx.json").exists(),
        "the lane's first close migrates its sidecar"
    );

    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean);
    assert!(reader.recovery().legacy_sidecars.is_empty());
    assert_store_matches(&reader, &recorded);
    assert!(
        reader.total_stored_bytes() < reader.total_payload_bytes(),
        "the appended v3 windows must actually be compressed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recompression_rewrites_v1_segments_without_changing_replay() {
    let dir = temp_dir("v1-recompress");
    let recorded = build_v1_store(&dir, 4, 6);
    let before = StoreReader::open(&dir).unwrap();
    let payload_bytes = before.total_payload_bytes();
    drop(before);

    let policy = MaintenancePolicy::disabled().with_recompress(CodecId::DeltaVarint);
    let report = Compactor::new(&dir, policy).compact().unwrap();
    assert!(report.recompressed_windows() > 0, "{report}");
    assert!(report.compression_ratio().unwrap() > 1.0, "{report}");
    assert_eq!(report.windows_dropped(), 0);
    assert!(
        dir.join("lane0000.idx").exists() && !dir.join("lane0000.idx.json").exists(),
        "compaction migrates the sidecar"
    );

    let after = StoreReader::open(&dir).unwrap();
    assert!(after.recovery().clean);
    assert!(after.recovery().legacy_sidecars.is_empty());
    assert_eq!(after.total_payload_bytes(), payload_bytes);
    assert!(after.total_stored_bytes() < payload_bytes);
    assert_store_matches(&after, &recorded);
    drop(after);

    // The pass converges: a second run changes nothing.
    let again = Compactor::new(&dir, policy).compact().unwrap();
    assert!(again.is_noop(), "{again}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_codec_round_trips_through_a_full_store_lifecycle() {
    for codec in CodecId::ALL {
        let dir = temp_dir(&format!("lifecycle-{}", codec.as_u8()));
        let recorded = write_closed_lane(&dir, codec, 10);

        let reader = StoreReader::open(&dir).unwrap();
        assert!(reader.recovery().clean, "{codec}");
        assert_store_matches(&reader, &recorded);
        // Range replay across a window boundary.
        let ranged = reader
            .windows_in_range(
                0,
                Timestamp::from_micros(15_000),
                Timestamp::from_micros(45_000),
            )
            .unwrap();
        assert!(!ranged.is_empty(), "{codec}");
        for (id, events) in &ranged {
            assert_eq!(events, &recorded[id.index() as usize].1, "{codec}");
        }
        drop(reader);

        // Merge-compact the small segments; replay must not move a byte.
        let report = Compactor::new(&dir, MaintenancePolicy::merge_below(u64::MAX))
            .compact()
            .unwrap();
        assert!(report.merged_runs() > 0, "{codec}: {report}");
        let after = StoreReader::open(&dir).unwrap();
        assert!(after.recovery().clean, "{codec}");
        assert_store_matches(&after, &recorded);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn crash_recovery_truncates_torn_v2_frames() {
    let dir = temp_dir("v2-torn");
    let config = StoreConfig::default().with_codec(CodecId::DeltaVarint);
    let mut writer = LaneWriter::create(&dir, 0, config).unwrap();
    let mut recorded = Vec::new();
    for id in 0..3u64 {
        let events = window_events(id, 25);
        let payload = encode(&events);
        let meta = RecordMeta {
            window_id: WindowId::new(id),
            start: events[0].timestamp,
            end: Timestamp::from_nanos(events.last().unwrap().timestamp.as_nanos() + 1),
        };
        writer.record_window(&meta, &events, &payload).unwrap();
        recorded.push((id, events, payload));
    }
    drop(writer); // crash: no sidecar
                  // Tear the last frame mid-block.
    let path = dir.join("lane0000-000000.seg");
    let bytes = std::fs::read(&path).unwrap();
    let torn_len = bytes.len() - 7;
    std::fs::write(&path, &bytes[..torn_len]).unwrap();

    let reader = StoreReader::open(&dir).unwrap();
    assert!(!reader.recovery().clean);
    assert_eq!(reader.recovery().windows, 2, "the torn frame is dropped");
    assert_eq!(reader.recovery().torn_tails.len(), 1);
    assert_store_matches(&reader, &recorded[..2]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn schema_2_json_sidecar_still_opens_cleanly_and_migrates() {
    for codec in CodecId::ALL {
        let dir = temp_dir(&format!("schema2-{}", codec.as_u8()));
        let recorded = write_closed_lane(&dir, codec, 8);
        downgrade_sidecar_to_schema_2_json(&dir);
        let before = dir_contents(&dir);

        let reader = StoreReader::open(&dir).unwrap();
        assert!(reader.recovery().clean, "{codec}");
        assert_eq!(reader.recovery().legacy_sidecars, [0], "{codec}");
        assert_store_matches(&reader, &recorded);
        drop(reader);
        assert_eq!(dir_contents(&dir), before, "readers migrate nothing");

        Compactor::new(&dir, MaintenancePolicy::merge_below(u64::MAX))
            .compact()
            .unwrap();
        assert!(dir.join("lane0000.idx").exists() && !dir.join("lane0000.idx.json").exists());
        let after = StoreReader::open(&dir).unwrap();
        assert!(after.recovery().clean, "{codec}");
        assert!(after.recovery().legacy_sidecars.is_empty(), "{codec}");
        assert_store_matches(&after, &recorded);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_wrong_offset_in_a_sidecar_falls_back_to_the_scanner() {
    // A JSON sidecar has no checksum: one changed digit still parses, and
    // the lane, segment list and file lengths all still match.
    let dir = temp_dir("row-bounds");
    let recorded = write_closed_lane(&dir, CodecId::Identity, 6); // two segments
    downgrade_sidecar_to_schema_2_json(&dir);
    let path = dir.join("lane0000.idx.json");
    let json = std::fs::read_to_string(&path).unwrap();
    let (at, _) = json.match_indices("\"offset\":").nth(4).unwrap();
    let digit = at + "\"offset\":".len();
    let changed = if json.as_bytes()[digit] == b'9' {
        "8"
    } else {
        "9"
    };
    let mut damaged = json.clone();
    damaged.replace_range(digit..=digit, changed);
    assert_ne!(damaged, json);
    std::fs::write(&path, damaged).unwrap();

    let reader = StoreReader::open(&dir).unwrap();
    assert_store_matches(&reader, &recorded);
    assert!(!reader.recovery().clean);
    assert_eq!(
        reader.recovery().sidecar_fallbacks,
        [SidecarFallback {
            lane: 0,
            reason: FallbackReason::RowOutOfBounds
        }]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn endlessly_nested_json_is_an_unreadable_sidecar_and_an_ignored_journal() {
    // A megabyte of `[` where the store parses JSON: the parser refuses
    // the nesting instead of recursing until the stack overflows.
    let dir = temp_dir("nested-json");
    let recorded = write_closed_lane(&dir, CodecId::Identity, 6);
    downgrade_sidecar_to_schema_2_json(&dir);
    let hostile = vec![b'['; 1 << 20];
    std::fs::write(dir.join("lane0000.idx.json"), &hostile).unwrap();
    std::fs::write(dir.join("lane0000.compact.json"), &hostile).unwrap();

    // The sidecar falls back to the scanner; the journal is a merge that
    // never landed.
    let reader = StoreReader::open(&dir).unwrap();
    assert_store_matches(&reader, &recorded);
    assert_eq!(
        reader.recovery().sidecar_fallbacks,
        [SidecarFallback {
            lane: 0,
            reason: FallbackReason::Unreadable
        }]
    );
    drop(reader);

    assert!(
        dir.join("lane0000.compact.json").exists(),
        "readers repair nothing"
    );

    // A maintenance pass recovers through the same two files, and takes
    // the journal with it: nothing can be finished from it, and left in
    // place it would be listed, read and parsed by every later operation.
    Compactor::new(&dir, MaintenancePolicy::merge_below(u64::MAX))
        .compact()
        .unwrap();
    assert!(!dir.join("lane0000.compact.json").exists());
    let after = StoreReader::open(&dir).unwrap();
    assert!(after.recovery().clean);
    assert_store_matches(&after, &recorded);
    drop(after);

    // So does a resuming writer.
    std::fs::write(dir.join("lane0000.compact.json"), &hostile).unwrap();
    LaneWriter::create(&dir, 0, StoreConfig::default())
        .unwrap()
        .close()
        .unwrap();
    assert!(!dir.join("lane0000.compact.json").exists());

    // A journal of a schema past this build's is a newer build's: not
    // understood, so neither acted on nor deleted, by either.
    let newer = br#"{"schema":2,"lane":0,"plan":"whatever schema 2 holds"}"#;
    std::fs::write(dir.join("lane0000.compact.json"), newer).unwrap();
    Compactor::new(&dir, MaintenancePolicy::merge_below(u64::MAX))
        .compact()
        .unwrap();
    LaneWriter::create(&dir, 0, StoreConfig::default())
        .unwrap()
        .close()
        .unwrap();
    assert_eq!(
        std::fs::read(dir.join("lane0000.compact.json")).unwrap(),
        newer
    );
    assert_store_matches(&StoreReader::open(&dir).unwrap(), &recorded);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_binary_sidecar_is_the_one_judged_when_both_are_present() {
    let dir = temp_dir("both-sidecars");
    let recorded = write_closed_lane(&dir, CodecId::DeltaVarint, 5);
    let idx = std::fs::read(dir.join("lane0000.idx")).unwrap();
    downgrade_sidecar_to_schema_2_json(&dir);

    // A stale or foreign `.idx.json` beside an intact `.idx` is ignored.
    let good_json = std::fs::read(dir.join("lane0000.idx.json")).unwrap();
    std::fs::write(dir.join("lane0000.idx"), &idx).unwrap();
    std::fs::write(dir.join("lane0000.idx.json"), b"{\"schema\":2,\"lane\":7").unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean);
    assert!(reader.recovery().legacy_sidecars.is_empty());
    assert_store_matches(&reader, &recorded);
    drop(reader);

    // A damaged `.idx` goes to the scanner, not to the intact JSON.
    let mut damaged = idx.clone();
    damaged[idx.len() / 2] ^= 1;
    std::fs::write(dir.join("lane0000.idx"), &damaged).unwrap();
    std::fs::write(dir.join("lane0000.idx.json"), &good_json).unwrap();
    let before = dir_contents(&dir);
    let reader = StoreReader::open(&dir).unwrap();
    assert_eq!(
        reader.recovery().sidecar_fallbacks,
        [SidecarFallback {
            lane: 0,
            reason: FallbackReason::BadChecksum
        }]
    );
    assert!(reader.recovery().legacy_sidecars.is_empty());
    assert_store_matches(&reader, &recorded);
    drop(reader);
    assert_eq!(dir_contents(&dir), before, "readers repair nothing");

    // The next writer leaves exactly one sidecar, the binary one.
    LaneWriter::create(&dir, 0, StoreConfig::default())
        .unwrap()
        .close()
        .unwrap();
    assert!(!dir.join("lane0000.idx.json").exists());
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean);
    assert_store_matches(&reader, &recorded);
    std::fs::remove_dir_all(&dir).ok();
}

/// `lane0000.idx` of `build_v1_store(dir, 2, 2)`, as FORMAT.md §4 lays it
/// out: header, two 13-byte segment records, four 49-byte window records,
/// CRC-32. An encoder that emits anything else, or a decoder that reads
/// this as anything else, has changed the format.
const GOLDEN_IDX: &str = "\
    45494458 03000000 00000000 02000000 0400000000000000 \
    00000000 a200000000000000 01 \
    01000000 0401000000000000 01 \
    0000000000000000 0000000000000000 b1710b0000000000 04000000 00000000 \
      0d00000000000000 38000000 00 1c000000 \
    0100000000000000 8096980000000000 e179af0000000000 07000000 00000000 \
      4d00000000000000 4d000000 00 31000000 \
    0200000000000000 002d310100000000 1182530100000000 0a000000 01000000 \
      0d00000000000000 69000000 00 4d000000 \
    0300000000000000 80c3c90100000000 418af70100000000 0d000000 01000000 \
      7e00000000000000 7e000000 00 62000000 \
    14fa7ead";

fn unhex(hex: &str) -> Vec<u8> {
    let digits: Vec<u8> = hex
        .bytes()
        .filter(|byte| !byte.is_ascii_whitespace())
        .map(|byte| (byte as char).to_digit(16).unwrap() as u8)
        .collect();
    digits
        .chunks(2)
        .map(|pair| pair[0] << 4 | pair[1])
        .collect()
}

#[test]
fn golden_binary_sidecar_pins_the_layout() {
    let golden = unhex(GOLDEN_IDX);
    let dir = temp_dir("golden-idx");
    let recorded = build_v1_store(&dir, 2, 2);
    std::fs::remove_file(dir.join("lane0000.idx.json")).unwrap();

    // Decoder: the golden bytes are a trusted sidecar of this store.
    std::fs::write(dir.join("lane0000.idx"), &golden).unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean, "{:?}", reader.recovery());
    let scanned = {
        std::fs::remove_file(dir.join("lane0000.idx")).unwrap();
        let cold = StoreReader::open(&dir).unwrap();
        assert!(!cold.recovery().clean);
        cold.lane_windows(0).unwrap().to_vec()
    };
    assert_eq!(reader.lane_windows(0).unwrap(), scanned);
    assert_store_matches(&reader, &recorded);
    drop(reader);

    // Encoder: a writer that recovers the lane and closes it emits them.
    LaneWriter::create(&dir, 0, StoreConfig::default())
        .unwrap()
        .close()
        .unwrap();
    let written = std::fs::read(dir.join("lane0000.idx")).unwrap();
    assert!(
        written == golden,
        "lane0000.idx drifted from the golden bytes:\n{}",
        written
            .iter()
            .map(|byte| format!("{byte:02x}"))
            .collect::<String>()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// What `write_v2_fixture` — this file's `window_events`, two to twelve
/// events a window, five windows, three to a segment, lane 0 under
/// `DeltaVarint` and lane 1 under `LzBlock` — left on disk when run
/// against the last build whose writer emitted format v2 (PR 19,
/// `259fd36`): a real v2 directory, sidecars included, not a
/// reconstruction. Both codecs refused the two-event windows, so each
/// lane holds identity frames too.
const PARENT_V2_STORE: [(&str, &str); 6] = [
    (
        "lane0000-000000.seg",
        "45534547020000000000000000310000004efafcb00000000000000000000000\
         000000000091d003000000000002000000001000000045545243010200000001\
         90a10f010101520000009329a89501000000000000008096980000000000e179\
         af000000000007000000003100000045545243010780ade20401640190a10f02\
         650190a10f03660190a10f00670190a10f01680190a10f02690190a10f036a01\
         6e0000006165f0c50200000000000000002d31010000000031235b0100000000\
         0c000000015b0000000c80dac40990a10f90a10f90a10f90a10f90a10f90a10f\
         90a10f90a10f90a10f90a10f90a10f0402010301000101011032103210320001\
         90030808000192030808000194030808000196030808",
    ),
    (
        "lane0000-000001.seg",
        "45534547020000000001000000360000002dff6cf7030000000000000080c3c9\
         01000000001194cd01000000000200000000150000004554524301028087a70e\
         03ac020190a10f00ad02015800000022180e9f0400000000000000005a620200\
         000000613d7902000000000700000001380000000780b4891390a10f90a10f90\
         a10f90a10f90a10f90a10f040001010102010301103210020001a006080001a2\
         06080001a406080001a606",
    ),
    (
        "lane0000.idx",
        "4549445803000000000000000200000005000000000000000000000016010000\
         000000000201000000ab00000000000000020000000000000000000000000000\
         000091d003000000000002000000000000000d00000000000000310000000010\
         00000001000000000000008096980000000000e179af00000000000700000000\
         00000046000000000000005200000000310000000200000000000000002d3101\
         0000000031235b01000000000c00000000000000a0000000000000006e000000\
         015b000000030000000000000080c3c901000000001194cd0100000000020000\
         00010000000d000000000000003600000000150000000400000000000000005a\
         620200000000613d79020000000007000000010000004b000000000000005800\
         00000138000000b7402264",
    ),
    (
        "lane0001-000000.seg",
        "45534547020100000000000000310000004efafcb00000000000000000000000\
         000000000091d003000000000002000000001000000045545243010200000001\
         90a10f0101014f000000ef9a80f201000000000000008096980000000000e179\
         af0000000000070000000231000000f00345545243010780ade20401640190a1\
         0f02650600200366060020006706002001680600200269060030036a016a0000\
         009c1049c40200000000000000002d31010000000031235b01000000000c0000\
         00025b000000f10445545243010c80dac40902c8010190a10f03c907002100ca\
         07002101cb07002102cc07002103cd07002100ce07002101cf07002102d00700\
         2103d107002100d207004001d30101",
    ),
    (
        "lane0001-000001.seg",
        "45534547020100000001000000360000002dff6cf7030000000000000080c3c9\
         01000000001194cd01000000000200000000150000004554524301028087a70e\
         03ac020190a10f00ad02015100000076aaa8180400000000000000005a620200\
         000000613d790200000000070000000238000000f10445545243010780b48913\
         0090030190a10f01910700210292070021039307002100940700210195070040\
         02960301",
    ),
    (
        "lane0001.idx",
        "454944580300000001000000020000000500000000000000000000000f010000\
         000000000201000000a400000000000000020000000000000000000000000000\
         000091d003000000000002000000000000000d00000000000000310000000010\
         00000001000000000000008096980000000000e179af00000000000700000000\
         00000046000000000000004f00000002310000000200000000000000002d3101\
         0000000031235b01000000000c000000000000009d000000000000006a000000\
         025b000000030000000000000080c3c901000000001194cd0100000000020000\
         00010000000d000000000000003600000000150000000400000000000000005a\
         620200000000613d79020000000007000000010000004b000000000000005100\
         00000238000000de2800c1",
    ),
];

/// The windows `write_v2_fixture` recorded into each lane.
fn parent_v2_windows() -> Vec<Window> {
    (0..5u64)
        .map(|id| {
            let events = window_events(id, 2 + (id % 3) as usize * 5);
            let (start, end) = (events[0].timestamp, events.last().unwrap().timestamp);
            Window::new(id, start.as_nanos(), end.as_nanos() + 1, events)
        })
        .collect()
}

fn recorded_as(windows: &[Window]) -> Vec<(u64, Vec<TraceEvent>, Vec<u8>)> {
    windows
        .iter()
        .map(|w| (w.id, w.events.clone(), w.payload.clone()))
        .collect()
}

#[test]
fn a_v2_store_the_parent_build_wrote_opens_replays_resumes_and_compacts() {
    let dir = temp_dir("parent-v2");
    for (name, hex) in PARENT_V2_STORE {
        std::fs::write(dir.join(name), unhex(hex)).unwrap();
    }
    let before = dir_contents(&dir);
    let mut windows = parent_v2_windows();

    // Opens clean off the parent's own sidecars, and off the scanner.
    for scan in [false, true] {
        if scan {
            std::fs::remove_file(dir.join("lane0000.idx")).unwrap();
        }
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.recovery().clean, !scan, "{:?}", reader.recovery());
        assert_eq!(reader.lane_ids(), [0, 1]);
        assert_store_matches(&reader, &recorded_as(&windows));
        let codecs = |lane| -> Vec<u8> {
            let rows = reader.lane_windows(lane).unwrap();
            rows.iter().map(|row| row.codec).collect()
        };
        assert_eq!(codecs(0), [0, 0, 1, 0, 1]);
        assert_eq!(codecs(1), [0, 2, 2, 0, 2]);
        let lane_1 = StoreReader::open(&dir).unwrap();
        assert_eq!(
            lane_1.lane_payload_bytes(1).unwrap(),
            reader.lane_payload_bytes(0).unwrap()
        );
    }
    std::fs::write(dir.join("lane0000.idx"), &before["lane0000.idx"]).unwrap();
    assert_eq!(dir_contents(&dir), before, "readers migrate nothing");

    // The fixture builder the other tests write v2 with lays out the
    // very bytes that build did.
    let rebuilt = temp_dir("parent-v2-rebuilt");
    for (lane, codec) in [(0, CodecId::DeltaVarint), (1, CodecId::LzBlock)] {
        write_v2_segment(&rebuilt, lane, 0, &windows[..3], codec);
        write_v2_segment(&rebuilt, lane, 1, &windows[3..], codec);
    }
    for (name, bytes) in dir_contents(&rebuilt) {
        assert!(
            bytes == before[&name],
            "{name}: the v2 fixture builder drifted"
        );
    }

    // Resumes: the v2 segments stay as they are, the new one is v3.
    let config = StoreConfig::default().with_codec(CodecId::DeltaVarint);
    let mut writer = LaneWriter::create(&dir, 0, config).unwrap();
    assert_eq!(writer.recovery().windows, 5);
    let events = window_events(5, 20);
    let (start, end) = (events[0].timestamp, events.last().unwrap().timestamp);
    windows.push(Window::new(5, start.as_nanos(), end.as_nanos() + 1, events));
    windows[5].record(&mut writer);
    writer.close().unwrap();
    let versions = |dir: &std::path::Path| -> Vec<u8> {
        let files = segment_files(dir, 0);
        files.iter().map(|file| file.1).collect()
    };
    assert_eq!(versions(&dir), [2, 2, 3]);
    for name in ["lane0000-000000.seg", "lane0000-000001.seg"] {
        assert_eq!(std::fs::read(dir.join(name)).unwrap(), before[name]);
    }
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean);
    assert_store_matches(&reader, &recorded_as(&windows));
    drop(reader);

    // Compacts: the run is rewritten, so it migrates; lane 1, which a
    // recompression pass has no business with, stays v2 to the byte.
    let policy = MaintenancePolicy::disabled().with_recompress(CodecId::DeltaVarint);
    let report = Compactor::new(&dir, policy).compact().unwrap();
    assert!(
        report.is_noop(),
        "v2 and v3 segments are not recompressed: {report}"
    );
    let report = Compactor::new(&dir, MaintenancePolicy::merge_below(u64::MAX / 4))
        .compact_lane(0)
        .unwrap();
    assert_eq!((report.segments_before, report.segments_after), (3, 1));
    assert!(report.envelope_bytes_after < report.envelope_bytes_before);
    assert_eq!(versions(&dir), [3]);
    for name in ["lane0001-000000.seg", "lane0001-000001.seg", "lane0001.idx"] {
        assert_eq!(std::fs::read(dir.join(name)).unwrap(), before[name]);
    }
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean);
    assert_store_matches(&reader, &recorded_as(&windows));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&rebuilt).ok();
}

/// `lane0000-000000.seg` of `golden_v3_windows`, as FORMAT.md §2.2 lays
/// format v3 out: the 13-byte header, then per frame a varint body
/// length, the CRC-32, six meta fields coded against the frame before,
/// and the stored block. Read the second frame, `38 467a6b8b 02 00 00
/// 06 00 32 …`: a 56-byte body; id one past its predecessor's
/// (`zigzag(1) = 2`), starting where that one ended, lasting as long;
/// six events; identity; 50 raw bytes. Six bytes of meta where v2
/// spent 33, five of header where it spent eight.
const GOLDEN_V3_SEG: &str = "\
     455345470300000000000000002313acf3355080c0f0f50b80e8922602001645\
     545243010298a2f8fa0500a01f01dda54c01a11f0138467a6b8b020000060032\
     4554524301069fd6818e0601842001dda54c02852001dda54c03862001dda54c\
     00872001dda54c01882001dda54c028920015d24ba0b720200000e016a0ea68a\
     8ba106dda54cdda54cdda54cdda54cdda54cdda54cdda54cdda54cdda54cdda5\
     4cdda54cdda54cdda54c040201030100010101103210321032100001d0410808\
     080001d2410808080001d44108080001d64108089801d1535b4a0200001e01da\
     011eadbe94b406dda54cdda54cdda54cdda54cdda54cdda54cdda54cdda54cdd\
     a54cdda54cdda54cdda54cdda54cdda54cdda54cdda54cdda54cdda54cdda54c\
     dda54cdda54cdda54cdda54cdda54cdda54cdda54cdda54cdda54cdda54c0403\
     010001010102011032103210321032103210321032100101984301080701019a\
     4301080701019c4301080601019e430108061c20d92d01020000020016455452\
     430102b4f29dc70600b02201dda54c01b122013858f8e7770200000600324554\
     52430106bba6a7da0601942301dda54c02952301dda54c03962301dda54c0097\
     2301dda54c01982301dda54c029923015bc120952b0200000e026af105455452\
     43010ec2dab0ed0602f82301dda54c03f907002100fa07002101fb07002102fc\
     07002103fd07002100fe07002101ff0700300280240700210381070021008207\
     00210183070021028407004003852401ae01987b77ac0680d0a54c001e02da01\
     f10545545243011ed7f6cca60701a42601dda54c02a507002103a607002100a7\
     07002101a807002102a907002103aa07002100ab07002101ac07002102ad0700\
     2103ae07002100af07002101b007002102b107002103b207002100b307002101\
     b407002102b507002103b607002100b707002101b807002102b907002103ba07\
     002100bb07002101bc07002102bd07002103be07002100bf07002101c0070040\
     02c126011cdd8020cc020000020016455452430102deaad6b90702882701dda5\
     4c038927010faaed9b460200ffe7922600000645545243010026601d0bdf0280\
     e892260103001d455452430103ec92e9df0700d02801dda54c01d12801dda54c\
     02d22801b10199bbc10d0282e8922682e892261e02da01f10545545243011ef3\
     c6f2f20701b42901dda54c02b507002103b607002100b707002101b807002102\
     b907002103ba07002100bb07002101bc07002102bd07002103be07002100bf07\
     002101c007002102c107002103c207002100c307002101c407002102c5070021\
     03c607002100c707002101c807002102c907002103ca07002100cb07002101cc\
     07002102cd07002103ce07002100cf07002101d007004002d12901";

/// Twelve windows, six recorded under `DeltaVarint` and six under
/// `LzBlock` (each refuses its smallest), 40 ms each, back to back but
/// for a hole of two windows in the ids and the clock before the
/// eighth, a window of no length and no events, and one that ends
/// before it starts.
fn golden_v3_windows() -> Vec<Window> {
    (0..12u64)
        .map(|at| {
            let id = if at < 7 { at + 40 } else { at + 42 };
            let start_ns = id * 40_000_000;
            let (span, count) = match at {
                9 => (0, 0),
                10 => (u64::MAX, 3),
                _ => (40_000_000, [2, 6, 14, 30][at as usize % 4]),
            };
            let events = (0..count)
                .map(|i| {
                    TraceEvent::new(
                        Timestamp::from_nanos(start_ns + i * 1_250_000 + (id * 7 + i * 13) % 1_000),
                        EventTypeId::new(((id + i) % 4) as u16),
                        (id * 100 + i) as u32,
                    )
                })
                .collect();
            Window::new(id, start_ns, start_ns.wrapping_add(span), events)
        })
        .collect()
}

#[test]
fn golden_v3_segment_pins_the_layout() {
    let golden = unhex(GOLDEN_V3_SEG);
    let windows = golden_v3_windows();

    // Encoder: two writers and a merge emit them.
    let dir = temp_dir("golden-v3-write");
    for (codec, half) in [CodecId::DeltaVarint, CodecId::LzBlock]
        .into_iter()
        .zip(windows.chunks(6))
    {
        let mut writer =
            LaneWriter::create(&dir, 0, StoreConfig::default().with_codec(codec)).unwrap();
        for window in half {
            window.record(&mut writer);
        }
        writer.close().unwrap();
    }
    Compactor::new(&dir, MaintenancePolicy::merge_below(u64::MAX / 4))
        .compact()
        .unwrap();
    let written = std::fs::read(dir.join("lane0000-000000.seg")).unwrap();
    assert!(
        written == golden,
        "lane0000-000000.seg drifted from the golden bytes:\n{}",
        written
            .iter()
            .map(|byte| format!("{byte:02x}"))
            .collect::<String>()
    );
    std::fs::remove_dir_all(&dir).ok();

    // Decoder: the golden bytes are a segment of this lane, to the
    // scanner and — once a writer has recovered it — through a sidecar.
    let dir = temp_dir("golden-v3-read");
    std::fs::write(dir.join("lane0000-000000.seg"), &golden).unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    assert!(
        reader.recovery().torn_tails.is_empty(),
        "{:?}",
        reader.recovery()
    );
    assert_store_matches(&reader, &recorded_as(&windows));
    let rows = reader.lane_windows(0).unwrap().to_vec();
    assert_eq!(
        rows.iter().map(common::entry_fields).collect::<Vec<_>>(),
        windows.iter().map(Window::fields).collect::<Vec<_>>()
    );
    let codecs: Vec<u8> = rows.iter().map(|row| row.codec).collect();
    assert_eq!(codecs, [0, 0, 1, 1, 0, 0, 2, 2, 0, 0, 0, 2]);
    assert_eq!(rows[1].offset + 1 + 4 + 56, rows[2].offset);
    drop(reader);
    LaneWriter::create(&dir, 0, StoreConfig::default())
        .unwrap()
        .close()
        .unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean);
    assert_eq!(reader.lane_windows(0).unwrap(), rows);
    assert_store_matches(&reader, &recorded_as(&windows));
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any geometry, any codec, recompression on or off: every surviving
    /// payload byte is exact and the pass is idempotent.
    #[test]
    fn recompressing_compaction_preserves_payloads(
        windows in 1u64..20,
        per_segment in 1u64..5,
        write_codec in 0u8..3,
        recompress_codec in 1u8..3,
        merge in any::<bool>(),
    ) {
        let write_codec = CodecId::from_u8(write_codec).unwrap();
        let recompress_codec = CodecId::from_u8(recompress_codec).unwrap();
        let dir = temp_dir(&format!(
            "prop-{windows}-{per_segment}-{}-{}-{merge}",
            write_codec.as_u8(),
            recompress_codec.as_u8()
        ));
        let config = StoreConfig::default()
            .with_codec(write_codec)
            .with_segment_max_windows(per_segment);
        let mut writer = LaneWriter::create(&dir, 0, config).unwrap();
        let mut expected_bytes = Vec::new();
        for id in 0..windows {
            let events = window_events(id, 3 + (id % 7) as usize * 5);
            let payload = encode(&events);
            let meta = RecordMeta {
                window_id: WindowId::new(id),
                start: events[0].timestamp,
                end: Timestamp::from_nanos(events.last().unwrap().timestamp.as_nanos() + 1),
            };
            writer.record_window(&meta, &events, &payload).unwrap();
            expected_bytes.extend(payload);
        }
        writer.close().unwrap();

        let mut policy = MaintenancePolicy::disabled().with_recompress(recompress_codec);
        if merge {
            policy = policy.with_max_merged_bytes(4 * 1024);
            policy.small_segment_bytes = u64::MAX;
        }
        Compactor::new(&dir, policy).compact().unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        prop_assert!(reader.recovery().clean);
        prop_assert_eq!(reader.lane_payload_bytes(0).unwrap(), expected_bytes);
        prop_assert_eq!(reader.lane_windows(0).unwrap().len() as u64, windows);
        drop(reader);
        let again = Compactor::new(&dir, policy).compact().unwrap();
        prop_assert!(again.is_noop(), "{}", again);
        std::fs::remove_dir_all(&dir).ok();
    }
}
