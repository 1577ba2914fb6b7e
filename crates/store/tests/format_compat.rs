//! On-disk format compatibility: a format-v1 store written by the
//! previous release (reconstructed here byte by byte, independent of the
//! current writer) must open, replay byte-for-byte, resume, and compact —
//! including recompression into a target codec — without changing a
//! single replayed payload byte. The sidecar's own encodings are pinned
//! here too: the JSON ones of schemas 1 and 2 stay readable and migrate
//! to the binary `.idx`, whose layout a checked-in golden file fixes byte
//! for byte. So are format v2, which nothing writes any more — a
//! directory the last v2-writing build left is carried as bytes — and
//! format v3, by a golden segment whose `LZB` frames nothing writes any
//! more either, and by one of packed rows; format v4, its template table
//! and templated frames, by another.

mod common;

use proptest::prelude::*;

use common::{
    dir_contents, golden_packed_windows, golden_v3_windows, golden_v4_windows, parent_v2_windows,
    schema_3_sidecar, segment_files, unhex, window_events, write_compressed_lane, write_v2_segment,
    Window, GOLDEN_PACKED_V3_SEG, GOLDEN_V3_SEG, GOLDEN_V4_SEG, PARENT_V2_STORE,
};

use endurance_store::{
    crc32, CodecId, Compactor, FallbackReason, LaneWriter, MaintenancePolicy, SidecarFallback,
    StoreConfig, StoreReader, TailStep, Tailer,
};
use trace_model::codec::{BinaryEncoder, TraceEncoder};
use trace_model::{EventSink, RecordMeta, Timestamp, TraceEvent, WindowId};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "endurance-format-compat-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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

/// Writes `windows` windows of 30 events to lane 0, three per segment,
/// each segment compressed under `codec` (see `write_compressed_lane`),
/// and closes the lane.
fn write_closed_lane(
    dir: &std::path::Path,
    codec: CodecId,
    windows: u64,
) -> Vec<(u64, Vec<TraceEvent>, Vec<u8>)> {
    let windows: Vec<Window> = (0..windows)
        .map(|id| {
            let events = window_events(id, 30);
            let (start, end) = (events[0].timestamp, events.last().unwrap().timestamp);
            Window::new(id, start.as_nanos(), end.as_nanos() + 1, events)
        })
        .collect();
    write_compressed_lane(dir, 0, &windows, 3, codec);
    recorded_as(&windows)
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
fn a_v1_store_resumes_and_migrates_its_sidecar_on_close() {
    let dir = temp_dir("v1-resume");
    let mut recorded = build_v1_store(&dir, 2, 3);

    // The old segments stay as they are; the appended ones are v1 too.
    let config = StoreConfig::default().with_segment_max_windows(2);
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
    let versions: Vec<u8> = segment_files(&dir, 0).iter().map(|file| file.1).collect();
    assert_eq!(versions, [1, 1, 1, 1, 1]);

    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean);
    assert!(reader.recovery().legacy_sidecars.is_empty());
    assert_store_matches(&reader, &recorded);
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
/// out in schema 4: the fixed header, `S` = 2 and `W` = 4 as varints, two
/// 13-byte segment records, four varint rows — each a v3 frame meta
/// against the row before (id, start, span, events, codec, raw length),
/// then segment delta, offset against the row before's body end (0 in a
/// new segment) and body length — and the CRC-32. An encoder that emits
/// anything else, or a decoder that reads this as anything else, has
/// changed the format.
const GOLDEN_IDX: &str = "\
    45494458 04000000 00000000 02 04 \
    00000000 a200000000000000 01 \
    01000000 0401000000000000 01 \
    00 00       e2c65b 04 00 1c  00 0d 38 \
    02 9e93e908 e0c65b 07 00 31  00 08 4d \
    02 becc8d08 e0c65b 0a 00 4d  01 0d 69 \
    02 de85b207 e0c65b 0d 00 62  00 08 7e \
    1ab9814a";

/// The same sidecar in schema 3, which builds before schema 4 wrote:
/// header, two 13-byte segment records, four 49-byte window records,
/// CRC-32. Never written again; still trusted.
const GOLDEN_IDX_V3: &str = "\
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

/// Decoder half of a golden sidecar: `golden` is a trusted sidecar of
/// `build_v1_store(dir, 2, 2)` whose rows are the scanner's. Returns the
/// store's directory, its `.idx` still the golden bytes.
fn assert_golden_sidecar_is_trusted(tag: &str, golden: &[u8]) -> std::path::PathBuf {
    let dir = temp_dir(tag);
    let recorded = build_v1_store(&dir, 2, 2);
    std::fs::remove_file(dir.join("lane0000.idx.json")).unwrap();
    let scanned = {
        let cold = StoreReader::open(&dir).unwrap();
        assert!(!cold.recovery().clean);
        cold.lane_windows(0).unwrap().to_vec()
    };
    std::fs::write(dir.join("lane0000.idx"), golden).unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean, "{:?}", reader.recovery());
    assert_eq!(reader.lane_windows(0).unwrap(), scanned);
    assert_store_matches(&reader, &recorded);
    dir
}

/// Encoder half: a writer that recovers the lane and closes it emits the
/// schema-4 golden bytes.
fn assert_close_writes_the_golden_sidecar(dir: &std::path::Path) {
    LaneWriter::create(dir, 0, StoreConfig::default())
        .unwrap()
        .close()
        .unwrap();
    let written = std::fs::read(dir.join("lane0000.idx")).unwrap();
    assert!(
        written == unhex(GOLDEN_IDX),
        "lane0000.idx drifted from the golden bytes:\n{}",
        written
            .iter()
            .map(|byte| format!("{byte:02x}"))
            .collect::<String>()
    );
}

#[test]
fn golden_binary_sidecar_pins_the_layout() {
    let dir = assert_golden_sidecar_is_trusted("golden-idx", &unhex(GOLDEN_IDX));
    assert_close_writes_the_golden_sidecar(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_schema_3_sidecar_is_trusted_and_the_next_close_writes_schema_4() {
    let golden = unhex(GOLDEN_IDX_V3);
    let dir = assert_golden_sidecar_is_trusted("golden-idx-v3", &golden);
    // A pass that changes nothing (it merges segments under one byte)
    // leaves the trusted sidecar as it is.
    let report = Compactor::new(&dir, MaintenancePolicy::merge_below(1))
        .compact()
        .unwrap();
    assert!(report.is_noop(), "{report}");
    assert_eq!(std::fs::read(dir.join("lane0000.idx")).unwrap(), golden);
    assert_close_writes_the_golden_sidecar(&dir);
    std::fs::remove_dir_all(&dir).ok();
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
    // very bytes that build did (for lane 0: nothing compresses `LZB`
    // blocks any more, so lane 1 is bytes only).
    let rebuilt = temp_dir("parent-v2-rebuilt");
    write_v2_segment(&rebuilt, 0, 0, &windows[..3], CodecId::DeltaVarint);
    write_v2_segment(&rebuilt, 0, 1, &windows[3..], CodecId::DeltaVarint);
    for (name, bytes) in dir_contents(&rebuilt) {
        assert!(
            bytes == before[&name],
            "{name}: the v2 fixture builder drifted"
        );
    }

    // Resumes: the v2 segments stay as they are, the new one is v1.
    let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
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
    assert_eq!(versions(&dir), [2, 2, 1]);
    let unchanged = |names: &[&str]| {
        for name in names {
            assert_eq!(std::fs::read(dir.join(name)).unwrap(), before[*name]);
        }
    };
    unchanged(&["lane0000-000000.seg", "lane0000-000001.seg"]);
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean);
    assert_store_matches(&reader, &recorded_as(&windows));
    drop(reader);

    // Compacts: a recompression pass takes the v1 segment and nothing
    // else; a merge then rewrites the run, so it migrates. Lane 1, which
    // neither pass has any business with, stays v2 to the byte.
    let policy = MaintenancePolicy::disabled().with_recompress(CodecId::DeltaVarint);
    let report = Compactor::new(&dir, policy).compact().unwrap();
    assert_eq!(report.recompressed_windows(), 1, "{report}");
    assert_eq!(versions(&dir), [2, 2, 3]);
    unchanged(&["lane0000-000000.seg", "lane0000-000001.seg"]);
    let report = Compactor::new(&dir, MaintenancePolicy::merge_below(u64::MAX / 4))
        .compact_lane(0)
        .unwrap();
    assert_eq!((report.segments_before, report.segments_after), (3, 1));
    assert!(report.envelope_bytes_after < report.envelope_bytes_before);
    assert_eq!(versions(&dir), [3]);
    unchanged(&["lane0001-000000.seg", "lane0001-000001.seg", "lane0001.idx"]);
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean);
    assert_store_matches(&reader, &recorded_as(&windows));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&rebuilt).ok();
}

/// Decoder half of a golden segment: `golden`, as segment 0 of lane 0, is
/// `windows` stored under `codecs` — to the scanner and, once a writer
/// has recovered it, through a sidecar and to a follower of that writer.
/// Returns the rows.
fn assert_golden_segment_replays(
    tag: &str,
    golden: &[u8],
    windows: &[Window],
    codecs: &[u8],
) -> Vec<endurance_store::WindowEntry> {
    let dir = temp_dir(tag);
    std::fs::write(dir.join("lane0000-000000.seg"), golden).unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    assert!(
        reader.recovery().torn_tails.is_empty(),
        "{:?}",
        reader.recovery()
    );
    assert_store_matches(&reader, &recorded_as(windows));
    let rows = reader.lane_windows(0).unwrap().to_vec();
    assert_eq!(
        rows.iter().map(common::entry_fields).collect::<Vec<_>>(),
        windows.iter().map(Window::fields).collect::<Vec<_>>()
    );
    let stored: Vec<u8> = rows.iter().map(|row| row.codec).collect();
    assert_eq!(stored, codecs);
    drop(reader);
    let writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
    let mut tailer = Tailer::follow(&dir, writer.commit_log());
    writer.close().unwrap();
    let mut followed = Vec::new();
    loop {
        match tailer.next(std::time::Duration::from_secs(10)).unwrap() {
            TailStep::Window(window) => followed.push(window),
            TailStep::Closed => break,
            TailStep::TimedOut => panic!("the writer is gone; the tail must close"),
        }
    }
    assert_eq!(followed.iter().map(|w| w.entry).collect::<Vec<_>>(), rows);
    for (got, window) in followed.iter().zip(windows) {
        assert_eq!(got.payload, window.payload, "window {}", window.id);
        assert_eq!(got.events().unwrap(), window.events, "window {}", window.id);
    }
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean);
    assert_eq!(reader.lane_windows(0).unwrap(), rows);
    assert_store_matches(&reader, &recorded_as(windows));
    std::fs::remove_dir_all(&dir).ok();
    rows
}

#[test]
fn golden_v3_segment_pins_the_layout() {
    let golden = unhex(GOLDEN_V3_SEG);
    let windows = golden_v3_windows();
    let codecs = [0, 0, 1, 1, 0, 0, 2, 2, 0, 0, 0, 2];
    let rows = assert_golden_segment_replays("golden-v3", &golden, &windows, &codecs);
    assert_eq!(rows[1].offset + 1 + 4 + 56, rows[2].offset);

    // Encoder, block by block: the `EDV` blocks of the third and fourth
    // frames (14 and 30 events, four types: nibble tokens and four
    // columns) are what `EDV` writes for their payloads today. A pass no
    // longer writes this segment whole — it stores small windows as
    // packed rows, and nothing writes `LZB` — so its frame layout is
    // pinned by `golden_packed_v3_segment_pins_the_layout`.
    for (at, meta) in [(2, 6), (3, 7)] {
        let mut edv = Vec::new();
        assert!(CodecId::DeltaVarint
            .new_codec()
            .compress(&windows[at].payload, &mut edv)
            .unwrap());
        assert_eq!(rows[at].len as usize, meta + edv.len(), "frame {at}");
        let end = rows[at + 1].offset as usize;
        assert!(
            golden[end - edv.len()..end] == edv[..],
            "the EDV block of frame {at} drifted from the golden bytes"
        );
    }
}

#[test]
fn golden_packed_v3_segment_pins_the_layout() {
    let golden = unhex(GOLDEN_PACKED_V3_SEG);
    let windows = golden_packed_windows();

    // Encoder: a writer and a recompressing merge emit the golden bytes.
    let dir = temp_dir("golden-packed-write");
    let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
    for window in &windows {
        window.record(&mut writer);
    }
    writer.close().unwrap();
    let policy = MaintenancePolicy::merge_below(u64::MAX / 4).with_recompress(CodecId::DeltaVarint);
    let report = Compactor::new(&dir, policy).compact().unwrap();
    assert_eq!(report.frames_by_codec(), [0, 1, 0, 4, 0], "{report}");
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

    // Decoder: the rows decode against their frames' starts and counts.
    let rows = assert_golden_segment_replays("golden-packed", &golden, &windows, &[3, 3, 3, 1, 3]);
    // The first row of the first frame: zigzag(−1500) = 2999.
    let first_block = rows[0].offset as usize + 1 + 4 + 14;
    assert_eq!(golden[first_block..first_block + 2], [0xb7, 0x17]);
    // The empty window: a body of meta alone.
    assert_eq!(rows[2].len, 6);
    assert_eq!(rows[2].offset + 1 + 4 + 6, rows[3].offset);
}

/// The bytes of `dir`'s `name`, as the hex a golden constant holds.
fn hex_of(dir: &std::path::Path, name: &str) -> String {
    std::fs::read(dir.join(name))
        .unwrap()
        .iter()
        .map(|byte| format!("{byte:02x}"))
        .collect()
}

#[test]
fn golden_v4_segment_pins_the_layout() {
    let golden = unhex(GOLDEN_V4_SEG);
    let windows = golden_v4_windows();

    // Encoder: a recompressing merge of what a writer recorded emits the
    // golden bytes — six windows of two shapes templated, the last packed.
    let dir = temp_dir("golden-v4-write");
    let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
    for window in &windows {
        window.record(&mut writer);
    }
    writer.close().unwrap();
    let policy = MaintenancePolicy::merge_below(u64::MAX / 4).with_recompress(CodecId::DeltaVarint);
    let report = Compactor::new(&dir, policy).compact().unwrap();
    assert_eq!(report.frames_by_codec(), [0, 0, 0, 1, 6], "{report}");
    let written = std::fs::read(dir.join("lane0000-000000.seg")).unwrap();
    assert!(
        written == golden,
        "lane0000-000000.seg drifted from the golden bytes:\n{}",
        hex_of(&dir, "lane0000-000000.seg")
    );
    // A second pass finds nothing to do: v4 is no recompression candidate.
    assert!(Compactor::new(&dir, policy).compact().unwrap().is_noop());
    std::fs::remove_dir_all(&dir).ok();

    // Decoder: scanner, sidecar and follower read the templated frames
    // against the table.
    let rows =
        assert_golden_segment_replays("golden-v4", &golden, &windows, &[4, 4, 4, 4, 4, 4, 3]);
    assert_eq!(golden[4], 4, "version byte");
    // The table section: `varint L`, CRC, L bytes, then the first frame.
    let table_len = usize::from(golden[13]);
    assert!(table_len < 0x80);
    let table = &golden[18..18 + table_len];
    assert_eq!(crc32(table).to_le_bytes(), golden[14..18]);
    assert_eq!(rows[0].offset as usize, 18 + table_len);
    // Two templates: six rows of shape A, five of shape B.
    assert_eq!(&table[..2], &[2, 6]);
    // The fifth frame, past its length, CRC and six meta bytes: template
    // 0, one exception, at row 4, payload 70 000.
    let block = rows[4].offset as usize + 1 + 4 + 6;
    assert_eq!(golden[block..block + 6], [0, 1, 4, 0xf0, 0xa2, 0x04]);
}

#[test]
fn a_sidecar_row_inside_a_v4_table_fails_its_first_read() {
    let dir = temp_dir("v4-row-in-table");
    std::fs::write(dir.join("lane0000-000000.seg"), unhex(GOLDEN_V4_SEG)).unwrap();
    // A writer recovers the lane and leaves a sidecar of its rows.
    LaneWriter::create(&dir, 0, StoreConfig::default())
        .unwrap()
        .close()
        .unwrap();
    // Point the first row at the header's end — inside the table: the
    // row check (FORMAT.md §4) bounds rows at the header, not at the
    // table, so the sidecar is trusted. Schema 3's fixed-width rows, which
    // the same row check holds, let one row move without the rows after
    // it, each coded against the one before in schema 4.
    let mut rows = StoreReader::open(&dir)
        .unwrap()
        .lane_windows(0)
        .unwrap()
        .to_vec();
    rows[0].offset = 13;
    let segment = std::fs::read(dir.join("lane0000-000000.seg")).unwrap();
    let idx = schema_3_sidecar(&[(0, segment.len() as u64, segment[4])], &rows);
    std::fs::write(dir.join("lane0000.idx"), idx).unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean, "{:?}", reader.recovery());
    for error in [
        reader.lane_events(0).unwrap_err(),
        reader.lane_payload_bytes(0).unwrap_err(),
        reader.window_events(0, WindowId::new(300)).unwrap_err(),
    ] {
        assert!(
            matches!(error, trace_model::TraceError::Decode { .. })
                && error.to_string().contains("template table"),
            "{error}"
        );
    }
    // The other rows read as ever.
    let windows = golden_v4_windows();
    assert_eq!(
        reader
            .window_events(0, WindowId::new(301))
            .unwrap()
            .unwrap(),
        windows[1].events
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any geometry, any codec the segments were compressed under, any
    /// recompression target, merging on or off: every surviving payload
    /// byte is exact and the pass is idempotent.
    #[test]
    fn recompressing_compaction_preserves_payloads(
        windows in 1u64..20,
        per_segment in 1u64..5,
        write_codec in 0u8..4,
        recompress_codec in 1u8..4,
        merge in any::<bool>(),
    ) {
        let write_codec = CodecId::from_u8(write_codec).unwrap();
        let recompress_codec = CodecId::from_u8(recompress_codec).unwrap();
        let dir = temp_dir(&format!(
            "prop-{windows}-{per_segment}-{}-{}-{merge}",
            write_codec.as_u8(),
            recompress_codec.as_u8()
        ));
        let recorded: Vec<Window> = (0..windows)
            .map(|id| {
                let events = window_events(id, 3 + (id % 7) as usize * 5);
                let (start, end) = (events[0].timestamp, events.last().unwrap().timestamp);
                Window::new(id, start.as_nanos(), end.as_nanos() + 1, events)
            })
            .collect();
        write_compressed_lane(&dir, 0, &recorded, per_segment as usize, write_codec);
        let expected_bytes: Vec<u8> = recorded.iter().flat_map(|w| w.payload.clone()).collect();

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

/// Two lanes packed by one pass, as `pack000000.seg` and its index:
/// [`golden_packed_windows`] (lane 0) and [`golden_v4_windows`] (lane 1),
/// each recorded whole and recompressed. The pack header (`EPAK`, version
/// 1, pack 0, the CRC of the entry headers), then each entry header —
/// lane, seq, version, body length — and body, which is the golden v3 and
/// v4 segment past its 13-byte header, byte for byte.
const GOLDEN_PACK: &str = "\
     4550414b01000000000421ac69000003da022681c1e3da900380c0b2cd3b80e8\
     9226050326b717010580897a050680897a090780897a010880897a0509712eaa\
     08a502000012038501f80a0103e5a386010503e5a386010903e5a386010d03e5\
     a386011103e5a386011503e5a386010104e5a386010504e5a386010904e5a386\
     010d04e5a386011104e5a386011504e5a386010105e5a386010505f19f860109\
     05e5a386010d05e5a386011105e5a386011505065ef6443e0200000003068c01\
     cddac5840200002801a0022880bcf59f1ec1843dc1843dbe843dc1843dc1843d\
     be843dc1843dc1843dbe843dc1843dc1843dbe843dc1843dc1843dbe843dc184\
     3dc1843dbe843dc1843dc1843dbe843dc1843dc1843dbe843dc1843dc1843dbe\
     843dc1843dc1843dbe843dc1843dc1843dbe843dc1843dc1843dbe843dc1843d\
     c1843dbe843d0104010101d00f010227170e45493702000003031d14ffff0fff\
     ffffff0f000000009601ac020100049b0223a7e3a544020601e80705e90709ea\
     0701eb0705ec0709ed07050d000dc80111900311d80415a00626032ec425d804\
     80e08bb45980e892260604370000a0068b9bee028b9bee028b9bee028b9bee02\
     8b9bee021a260f446a02000005042e0100ea068b9bee028b9bee028b9bee028b\
     9bee021e4a4929a70200000604370000b4078b9bee028b9bee028b9bee028b9b\
     ee028b9bee021a7b4fe9c802000005042e0100fe078b9bee028b9bee028b9bee\
     028b9bee02220062e5dc020000060438000104f0a204c8088b9bee028b9bee02\
     8b9bee028b9bee028b9bee021ab706ff7202000005042e010092098b9bee028b\
     9bee028b9bee028b9bee021cfe81f71e020000040323dc091d288b9bee022129\
     8b9bee02252a8b9bee021d2b";

/// The index of [`GOLDEN_PACK`]: `EPIX`, schema 1, pack 0, the pack's
/// length, two entry records and each lane's schema-4 rows.
const GOLDEN_PACK_IDX: &str = "\
     4550495801000000000000008c0200000000000002000003da0205380100049b\
     020747900380c0b2cd3b80e89226050326000d26020000120385010005710200\
     000003060005060200002801a00200058c0102000003031d000617d80480e08b\
     b45980e8922606043700352602000005042e00051a02000006043700051e0200\
     0005042e00051a02000006043800052202000005042e00051a02000004032300\
     051c00c0d049";

#[test]
fn golden_pack_pins_the_layout() {
    let lanes = [(0u32, golden_packed_windows()), (1, golden_v4_windows())];

    // Encoder: one recompressing pass over the two recorded lanes writes
    // the golden pack and index, and nothing else.
    let dir = temp_dir("golden-pack-write");
    for (lane, windows) in &lanes {
        let mut writer = LaneWriter::create(&dir, *lane, StoreConfig::default()).unwrap();
        for window in windows {
            window.record(&mut writer);
        }
        writer.close().unwrap();
    }
    let policy = MaintenancePolicy::merge_below(u64::MAX / 4).with_recompress(CodecId::DeltaVarint);
    let report = Compactor::new(&dir, policy).compact().unwrap();
    assert_eq!(
        (report.packs_written, report.lanes_packed),
        (1, 2),
        "{report}"
    );
    let names: Vec<String> = dir_contents(&dir).into_keys().collect();
    assert_eq!(names, ["pack000000.idx", "pack000000.seg"]);
    for (name, golden) in [
        ("pack000000.seg", GOLDEN_PACK),
        ("pack000000.idx", GOLDEN_PACK_IDX),
    ] {
        let written = hex_of(&dir, name);
        assert!(
            written == golden,
            "{name} drifted from the golden bytes:\n{written}"
        );
    }
    // A second pass finds nothing to do.
    assert!(Compactor::new(&dir, policy).compact().unwrap().is_noop());
    std::fs::remove_dir_all(&dir).ok();

    // The layout, field by field: the bodies are the golden segments'.
    let pack = unhex(GOLDEN_PACK);
    assert_eq!(&pack[..9], b"EPAK\x01\x00\x00\x00\x00");
    let (v3, v4) = (unhex(GOLDEN_PACKED_V3_SEG), unhex(GOLDEN_V4_SEG));
    let mut headers = Vec::new();
    let mut expected = pack[..13].to_vec();
    for (lane, version, segment) in [(0u8, 3u8, &v3), (1, 4, &v4)] {
        let body = &segment[13..];
        let mut header = vec![lane, 0, version];
        trace_model::codec::varint::encode_u64(body.len() as u64, &mut header);
        headers.extend_from_slice(&header);
        expected.extend_from_slice(&header);
        expected.extend_from_slice(body);
    }
    assert_eq!(pack, expected);
    assert_eq!(pack[9..13], crc32(&headers).to_le_bytes());

    // Decoder: the pack alone (its lanes scanned), then with its index
    // (trusted), replays both lanes; a writer resuming lane 1 recovers
    // it from the pack and a follower of that writer reads it there.
    let dir = temp_dir("golden-pack-read");
    std::fs::write(dir.join("pack000000.seg"), &pack).unwrap();
    let scanned: Vec<Vec<endurance_store::WindowEntry>> = {
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.lane_ids(), [0, 1]);
        let fallbacks: Vec<FallbackReason> = reader
            .recovery()
            .sidecar_fallbacks
            .iter()
            .map(|fallback| fallback.reason)
            .collect();
        assert_eq!(fallbacks, [FallbackReason::Missing; 2]);
        lanes
            .iter()
            .map(|(lane, windows)| {
                assert_lane_matches(&reader, *lane, windows);
                reader.lane_windows(*lane).unwrap().to_vec()
            })
            .collect()
    };
    std::fs::write(dir.join("pack000000.idx"), unhex(GOLDEN_PACK_IDX)).unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean, "{:?}", reader.recovery());
    for ((lane, windows), rows) in lanes.iter().zip(&scanned) {
        assert_eq!(reader.lane_windows(*lane).unwrap(), rows.as_slice());
        assert_lane_matches(&reader, *lane, windows);
    }
    // Offsets are the golden segments' own.
    assert_eq!(rows_offsets(&scanned[1]), rows_offsets(&golden_rows(&v4)));
    drop(reader);
    let writer = LaneWriter::create(&dir, 1, StoreConfig::default()).unwrap();
    assert_eq!(writer.recovery().windows, 7);
    let mut tailer = Tailer::follow(&dir, writer.commit_log());
    writer.close().unwrap();
    let mut followed = Vec::new();
    loop {
        match tailer.next(std::time::Duration::from_secs(10)).unwrap() {
            TailStep::Window(window) => followed.push(window),
            TailStep::Closed => break,
            TailStep::TimedOut => panic!("the writer is gone; the tail must close"),
        }
    }
    assert_eq!(
        followed.iter().map(|w| w.entry).collect::<Vec<_>>(),
        scanned[1]
    );
    for (got, window) in followed.iter().zip(&lanes[1].1) {
        assert_eq!(got.payload, window.payload, "window {}", window.id);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Lane `lane` of `reader` holds `windows`, payload for payload.
fn assert_lane_matches(reader: &StoreReader, lane: u32, windows: &[Window]) {
    let rows = reader.lane_windows(lane).unwrap();
    assert_eq!(
        rows.iter().map(common::entry_fields).collect::<Vec<_>>(),
        windows.iter().map(Window::fields).collect::<Vec<_>>()
    );
    let payloads: Vec<u8> = windows.iter().flat_map(|w| w.payload.clone()).collect();
    assert_eq!(reader.lane_payload_bytes(lane).unwrap(), payloads);
    let events: Vec<TraceEvent> = windows.iter().flat_map(|w| w.events.clone()).collect();
    assert_eq!(reader.lane_events(lane).unwrap(), events);
}

/// The rows a reader finds in `segment`, as lane 0's one segment.
fn golden_rows(segment: &[u8]) -> Vec<endurance_store::WindowEntry> {
    let dir = temp_dir("golden-pack-rows");
    std::fs::write(dir.join("lane0000-000000.seg"), segment).unwrap();
    let rows = StoreReader::open(&dir)
        .unwrap()
        .lane_windows(0)
        .unwrap()
        .to_vec();
    std::fs::remove_dir_all(&dir).ok();
    rows
}

fn rows_offsets(rows: &[endurance_store::WindowEntry]) -> Vec<(u64, u32)> {
    rows.iter().map(|row| (row.offset, row.len)).collect()
}
