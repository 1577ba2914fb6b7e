//! Hostile `.seg` bytes: every truncation, every single-bit flip and
//! `0xFF` runs at every offset of small format-v1, -v2, -v3 and -v4
//! segments (a v4 one's template table included),
//! read back through the scanner (no sidecar) and through the index path
//! (the sidecar of the undamaged lane still in place).
//!
//! Whatever the bytes, a reader answers with a torn tail at a frame
//! boundary or a typed [`TraceError`]: never a panic, never a window
//! whose fields or payload differ from what was written, never a
//! reservation sized by a length nobody checked (a run of `0xFF` over a
//! v3 length varint claims 2^35 bytes and more; were any path to believe
//! it, this test would not finish). One function parses frames
//! (`segment::read_frame`); this is the sweep over it, from outside. The
//! `LZB` sweeps read the checked-in bytes of earlier builds, since
//! nothing writes `LZB` any more, and the v4 sweep the golden v4 segment.

mod common;

use common::{
    events_encoding_to, golden_v3_windows, golden_v4_windows, parent_v2_windows, segment_header,
    unhex, write_v2_segment, Window, GOLDEN_V3_SEG, GOLDEN_V4_SEG, PARENT_V2_STORE,
};
use endurance_store::{
    crc32, CodecId, Compactor, LaneWriter, MaintenancePolicy, Snapshot, StoreConfig, StoreReader,
    TailStep, Tailer, WindowEntry,
};
use trace_model::codec::varint::encode_u64;
use trace_model::{EventTypeId, Timestamp, TraceError, TraceEvent, WindowId};

const SEGMENT: &str = "lane0000-000000.seg";
const SIDECAR: &str = "lane0000.idx";

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "endurance-hostile-seg-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Four windows: one whose payload no codec takes (its event count is
/// spelled in two bytes: not the canonical `ETRC` a codec re-encodes, but
/// a payload that decodes), two a codec takes — the second of one event
/// type, which `EDV` stores smaller than packed rows — and one with no
/// events; the third does not follow the second.
fn windows() -> Vec<Window> {
    [(7u64, 2usize), (8, 9), (11, 12), (12, 0)]
        .into_iter()
        .map(|(id, count)| {
            let start_ns = id * 40_000_000;
            let types = if id == 11 { 1 } else { 3 };
            let events = (0..count as u64)
                .map(|i| {
                    TraceEvent::new(
                        Timestamp::from_nanos(start_ns + i * 3_000_000 + (id + i) % 700),
                        EventTypeId::new((i % types) as u16),
                        (id * 10 + i) as u32,
                    )
                })
                .collect();
            let mut window = Window::new(id, start_ns, start_ns + 40_000_000, events);
            if id == 7 {
                window.payload[5] |= 0x80;
                window.payload.insert(6, 0);
            }
            window
        })
        .collect()
}

/// One undamaged single-segment lane and what a reader makes of it.
struct Pristine {
    version: u8,
    windows: Vec<Window>,
    segment: Vec<u8>,
    sidecar: Vec<u8>,
    rows: Vec<WindowEntry>,
    /// Scratch directory the damaged copies are read from.
    dir: std::path::PathBuf,
}

impl Pristine {
    /// `windows()` as a v1 lane, a v2 one from the fixture builder, or —
    /// recorded, then recompressed by a pass targeting `DeltaVarint` — a
    /// v3 one holding identity, packed and `EDV` frames; or,
    /// under `LzBlock`, what earlier builds left: the frames of lane 1 of
    /// `PARENT_V2_STORE` as one v2 segment, and the first eight frames of
    /// `GOLDEN_V3_SEG` (the first two `LZB` ones among them); under
    /// `Templated`, `GOLDEN_V4_SEG`: a template table, templated frames
    /// and one packed.
    fn build(version: u8, codec: CodecId) -> Self {
        let dir = temp_dir(&format!("v{version}-{}", codec.as_u8()));
        let mut windows = windows();
        match (version, codec) {
            (1 | 3, CodecId::Identity | CodecId::DeltaVarint) => {
                let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
                for window in &windows {
                    window.record(&mut writer);
                }
                writer.close().unwrap();
                if version == 3 {
                    let policy = MaintenancePolicy::disabled().with_recompress(codec);
                    Compactor::new(&dir, policy).compact().unwrap();
                }
            }
            (2, CodecId::DeltaVarint) => write_v2_segment(&dir, 0, 0, &windows, codec),
            (2, CodecId::LzBlock) => {
                windows = parent_v2_windows();
                let mut segment = segment_header(2, 0, 0);
                for name in ["lane0001-000000.seg", "lane0001-000001.seg"] {
                    let (_, hex) = PARENT_V2_STORE.iter().find(|(n, _)| *n == name).unwrap();
                    segment.extend_from_slice(&unhex(hex)[13..]);
                }
                std::fs::write(dir.join(SEGMENT), segment).unwrap();
            }
            (3, CodecId::LzBlock) => {
                windows = golden_v3_windows();
                windows.truncate(8);
                // The golden segment, cut where its ninth frame starts.
                let golden = unhex(GOLDEN_V3_SEG);
                std::fs::write(dir.join(SEGMENT), &golden).unwrap();
                let rows = StoreReader::open(&dir)
                    .unwrap()
                    .lane_windows(0)
                    .unwrap()
                    .to_vec();
                std::fs::write(dir.join(SEGMENT), &golden[..rows[8].offset as usize]).unwrap();
            }
            (4, CodecId::Templated) => {
                windows = golden_v4_windows();
                std::fs::write(dir.join(SEGMENT), unhex(GOLDEN_V4_SEG)).unwrap();
            }
            other => unreachable!("no {other:?} lane"),
        }
        if !dir.join(SIDECAR).exists() {
            // A resume recovers the lane and its close writes the sidecar.
            LaneWriter::create(&dir, 0, StoreConfig::default())
                .unwrap()
                .close()
                .unwrap();
        }
        let segment = std::fs::read(dir.join(SEGMENT)).unwrap();
        assert_eq!(segment[4], version);
        let reader = StoreReader::open(&dir).unwrap();
        assert!(reader.recovery().clean);
        let rows = reader.lane_windows(0).unwrap().to_vec();
        assert_eq!(rows.len(), windows.len());
        if version > 1 {
            assert!(rows.iter().any(|row| row.codec == codec.as_u8()), "{codec}");
            // (Every window of the v4 golden is canonical `ETRC`.)
            assert!(
                rows.iter().any(|row| row.codec == 0) || version == 4,
                "{codec}"
            );
        }
        if (version, codec) == (3, CodecId::DeltaVarint) {
            // The pass stores each frame as its smallest block: the payload
            // nothing takes, packed rows, `EDV`, and an empty row block.
            let codecs: Vec<u8> = rows.iter().map(|row| row.codec).collect();
            assert_eq!(codecs, [0, 3, 1, 3]);
        }
        Pristine {
            version,
            windows,
            segment,
            sidecar: std::fs::read(dir.join(SIDECAR)).unwrap(),
            rows,
            dir,
        }
    }

    /// Where frame `at` starts — the length of the file for one past the
    /// last.
    fn frame_boundary(&self, at: usize) -> u64 {
        self.rows
            .get(at)
            .map_or(self.segment.len() as u64, |row| row.offset)
    }

    /// Frames that lie wholly within the first `len` bytes of the file.
    fn frames_ending_by(&self, len: usize) -> usize {
        (1..=self.rows.len())
            .filter(|&next| self.frame_boundary(next) <= len as u64)
            .count()
    }

    /// Reads `damaged` in place of the segment, with the undamaged
    /// lane's sidecar beside it or without one, and holds every answer
    /// to the contract. Returns how many windows survived.
    fn read(&self, damaged: &[u8], with_sidecar: bool, what: &str) -> usize {
        let what = format!("v{} {what} sidecar={with_sidecar}", self.version);
        std::fs::write(self.dir.join(SEGMENT), damaged).unwrap();
        if with_sidecar {
            std::fs::write(self.dir.join(SIDECAR), &self.sidecar).unwrap();
        } else {
            let _ = std::fs::remove_file(self.dir.join(SIDECAR));
        }
        let reader = StoreReader::open(&self.dir).unwrap();
        let rows = match reader.lane_windows(0) {
            Ok(rows) => rows.to_vec(),
            // The segment header, or a frame that contradicts itself.
            Err(TraceError::Decode { .. } | TraceError::Io(_)) => return 0,
            Err(other) => panic!("{what}: untyped {other:?}"),
        };
        // What is listed is a prefix of what was written, field for
        // field, wherever the rows came from.
        assert!(rows.len() <= self.rows.len(), "{what}: {rows:?}");
        assert_eq!(rows, self.rows[..rows.len()], "{what}");
        let report = reader.recovery();
        if !report.clean {
            // The scanner ran: every listed frame passed its CRC, and
            // whatever it cut off starts at a frame boundary.
            let committed = self.frame_boundary(rows.len()).min(damaged.len() as u64);
            match report.torn_tails.as_slice() {
                [] => assert_eq!(
                    damaged.len() as u64,
                    self.frame_boundary(rows.len()),
                    "{what}"
                ),
                // (At the header's end, or the v4 table's.)
                [tail] if rows.is_empty() => {
                    assert!(tail.offset <= self.frame_boundary(0), "{what}: {tail:?}")
                }
                [tail] => {
                    assert_eq!(tail.offset, committed, "{what}");
                    assert_eq!(
                        tail.dropped_bytes,
                        damaged.len() as u64 - committed,
                        "{what}"
                    );
                }
                tails => panic!("{what}: {tails:?}"),
            }
        }
        // Every read of a listed window is the window or a typed error —
        // after a scan, which checked each frame, the window.
        let snapshot = Snapshot::open(&self.dir).unwrap();
        for (row, window) in rows.iter().zip(&self.windows) {
            let id = WindowId::new(row.window_id);
            let reads = [reader.window_payload(0, id), snapshot.window_payload(0, id)];
            for read in reads {
                match read {
                    Ok(Some(payload)) => assert_eq!(payload, window.payload, "{what}"),
                    Ok(None) => panic!("{what}: window {} vanished", row.window_id),
                    Err(TraceError::Decode { .. }) if report.clean => {}
                    Err(other) => panic!("{what}: {other:?}"),
                }
            }
            match snapshot.window_events(0, id) {
                Ok(events) => assert_eq!(events.as_ref(), Some(&window.events), "{what}"),
                Err(TraceError::Decode { .. }) if report.clean => {}
                Err(other) => panic!("{what}: {other:?}"),
            }
        }
        let events: Vec<TraceEvent> = self.windows[..rows.len()]
            .iter()
            .flat_map(|window| window.events.clone())
            .collect();
        match reader.lane_events(0) {
            Ok(replayed) => assert_eq!(replayed, events, "{what}"),
            Err(TraceError::Decode { .. } | TraceError::Io(_)) if report.clean => {}
            Err(other) => panic!("{what}: {other:?}"),
        }
        rows.len()
    }

    /// A maintenance pass over `damaged` (sidecar in place): it fails
    /// with a typed error and moves nothing, or what it leaves replays
    /// as a prefix of what was written.
    fn compact(&self, damaged: &[u8], what: &str) {
        let what = format!("v{} {what} compacted", self.version);
        std::fs::write(self.dir.join(SEGMENT), damaged).unwrap();
        std::fs::write(self.dir.join(SIDECAR), &self.sidecar).unwrap();
        // Dropping the head of the segment (every window that ends no
        // later than the second) has the pass re-frame the rest, whatever
        // the version; a v1 lane is re-encoded besides.
        let newest = self.windows.iter().map(|w| w.end_ns).max().unwrap();
        let cutoff = self.windows[1].end_ns;
        let policy = MaintenancePolicy::disabled()
            .with_recompress(CodecId::DeltaVarint)
            .with_retention_ns(newest - cutoff);
        match Compactor::new(&self.dir, policy).compact() {
            Err(TraceError::Decode { .. } | TraceError::Io(_)) => {}
            Err(other) => panic!("{what}: {other:?}"),
            Ok(_) => {
                let reader = StoreReader::open(&self.dir).unwrap();
                let kept: Vec<&Window> = self
                    .windows
                    .iter()
                    .filter(|window| window.end_ns > cutoff)
                    .collect();
                match reader.lane_payload_bytes(0) {
                    Ok(bytes) => {
                        let all: Vec<u8> = kept.iter().flat_map(|w| w.payload.clone()).collect();
                        assert!(all.starts_with(&bytes), "{what}");
                    }
                    Err(TraceError::Decode { .. }) => {}
                    Err(other) => panic!("{what}: {other:?}"),
                }
            }
        }
        for entry in std::fs::read_dir(&self.dir).unwrap() {
            std::fs::remove_file(entry.unwrap().path()).unwrap();
        }
    }
}

fn sweep(pristine: &Pristine) {
    let bytes = &pristine.segment;
    // The undamaged segment reads whole, both ways.
    for with_sidecar in [false, true] {
        assert_eq!(
            pristine.read(bytes, with_sidecar, "intact"),
            pristine.rows.len()
        );
    }
    for cut in 0..bytes.len() {
        // A truncated file holds the frames that end before the cut.
        for with_sidecar in [false, true] {
            let survived = pristine.read(&bytes[..cut], with_sidecar, &format!("cut at {cut}"));
            assert_eq!(
                survived,
                pristine.frames_ending_by(cut),
                "v{} cut at {cut}",
                pristine.version
            );
        }
    }
    for at in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << bit;
            let what = format!("bit {bit} of byte {at} flipped");
            // A flipped bit costs a scanner the frame it is in and every
            // frame behind it — never one before it.
            let survived = pristine.read(&flipped, false, &what);
            assert_eq!(
                survived,
                pristine.frames_ending_by(at),
                "v{} {what}",
                pristine.version
            );
            pristine.read(&flipped, true, &what);
            if bit == at % 8 {
                pristine.compact(&flipped, &what);
            }
        }
        for run in [1, 2, 5, 10] {
            let mut smeared = bytes.clone();
            let end = (at + run).min(bytes.len());
            smeared[at..end].fill(0xFF);
            let what = format!("{run} x 0xFF at {at}");
            pristine.read(&smeared, false, &what);
            pristine.read(&smeared, true, &what);
        }
    }
    std::fs::remove_dir_all(&pristine.dir).ok();
}

#[test]
fn no_byte_of_a_v1_segment_can_make_a_reader_lie() {
    sweep(&Pristine::build(1, CodecId::Identity));
}

#[test]
fn no_byte_of_a_v2_segment_can_make_a_reader_lie() {
    sweep(&Pristine::build(2, CodecId::DeltaVarint));
    sweep(&Pristine::build(2, CodecId::LzBlock));
}

#[test]
fn no_byte_of_a_v3_segment_can_make_a_reader_lie() {
    sweep(&Pristine::build(3, CodecId::DeltaVarint));
    sweep(&Pristine::build(3, CodecId::LzBlock));
}

/// A cut or a flipped bit inside the template table is corruption, not a
/// torn tail — a pass writes a v4 segment whole — so the scanner refuses
/// the segment typed, and a trusted sidecar's reads fail typed too.
#[test]
fn no_byte_of_a_v4_segment_can_make_a_reader_lie() {
    sweep(&Pristine::build(4, CodecId::Templated));
}

/// Length fields no writer emits, spliced in front of an intact v3
/// frame: each is refused where it stands — the frames before it
/// survive, nothing is read or reserved on its word.
#[test]
fn v3_length_varints_are_held_to_the_letter() {
    let pristine = Pristine::build(3, CodecId::DeltaVarint);
    let second = pristine.rows[1].offset as usize;
    let honest = pristine.segment[second];
    assert!(honest < 0x80, "a one-byte length");
    for (what, length) in [
        ("non-minimal", vec![honest | 0x80, 0x00]),
        (
            "non-minimal, five bytes",
            vec![honest | 0x80, 0x80, 0x80, 0x80, 0x00],
        ),
        (
            "six bytes",
            vec![honest | 0x80, 0x80, 0x80, 0x80, 0x80, 0x00],
        ),
        ("2^30 + 1", vec![0x81, 0x80, 0x80, 0x80, 0x04]),
        ("2^35 - 1", vec![0xFF, 0xFF, 0xFF, 0xFF, 0x7F]),
        ("past the end of the file", vec![0xFF, 0x7F]),
        ("shorter than a frame's meta", vec![0x05]),
        ("endless", vec![0xFF; 24]),
    ] {
        let mut spliced = pristine.segment[..second].to_vec();
        spliced.extend_from_slice(&length);
        spliced.extend_from_slice(&pristine.segment[second + 1..]);
        for with_sidecar in [false, true] {
            // A sidecar that still matches the file's length is trusted
            // to list the lane; reading the frame is what fails, typed
            // (`read` checks). Everyone else stops in front of it.
            let listed = if with_sidecar && spliced.len() == pristine.segment.len() {
                4
            } else {
                1
            };
            assert_eq!(
                pristine.read(&spliced, with_sidecar, what),
                listed,
                "{what}"
            );
        }
    }
    // And a raw length on either side of the two-byte varint edge is
    // just a raw length.
    for len in [16_383, 16_384] {
        let dir = temp_dir(&format!("raw-{len}"));
        let events = events_encoding_to(len, 1_000);
        let window = Window::new(1, 1_000, 2_000, events);
        let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
        window.record(&mut writer);
        writer.close().unwrap();
        let policy = MaintenancePolicy::disabled().with_recompress(CodecId::DeltaVarint);
        Compactor::new(&dir, policy).compact().unwrap();
        assert_eq!(std::fs::read(dir.join(SEGMENT)).unwrap()[4], 3);
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.lane_windows(0).unwrap()[0].raw_len as usize, len);
        assert_eq!(reader.lane_payload_bytes(0).unwrap(), window.payload);
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&pristine.dir).ok();
}

/// One frame of a `version` segment (2 or 3) at the head of its segment,
/// laid out by hand around `block`: window 0 over `[0, 1)`, `events`
/// events, `codec`, and a raw length of `raw_len`, CRC and all.
fn crafted_frame(version: u8, codec: CodecId, events: u32, raw_len: u32, block: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    if version == 2 {
        body.extend_from_slice(&[0; 16]);
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&events.to_le_bytes());
        body.push(codec.as_u8());
        body.extend_from_slice(&raw_len.to_le_bytes());
    } else {
        // id and start deltas of zero, a span of zigzag(1), the count,
        // the codec byte, the raw length.
        body.extend_from_slice(&[0, 0, 2]);
        encode_u64(events.into(), &mut body);
        body.push(codec.as_u8());
        encode_u64(raw_len.into(), &mut body);
    }
    body.extend_from_slice(block);
    let mut frame = if version == 2 {
        (body.len() as u32).to_le_bytes().to_vec()
    } else {
        assert!(body.len() < 0x80, "a one-byte length varint");
        vec![body.len() as u8]
    };
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// A CRC-valid frame is still only a claim: one whose raw length says
/// `u32::MAX` over a block of a few bytes — an `EDV` event count of
/// `u32::MAX`, an `LZB` block that runs out at once — reads back as a
/// typed error on every path, with nothing reserved on its word.
#[test]
fn a_crc_valid_frame_claiming_4_gib_is_a_typed_error() {
    let blocks: [(CodecId, &[u8]); 2] = [
        (CodecId::DeltaVarint, &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x00]),
        (CodecId::LzBlock, &[0x00]),
    ];
    for version in [2u8, 3] {
        for (codec, block) in blocks {
            let what = format!("v{version} {codec}");
            let dir = temp_dir(&format!("claim-v{version}-{}", codec.as_u8()));
            let mut segment = segment_header(version, 0, 0);
            segment.extend(crafted_frame(version, codec, 1, u32::MAX, block));
            std::fs::write(dir.join(SEGMENT), segment).unwrap();

            let reader = StoreReader::open(&dir).unwrap();
            let rows = reader.lane_windows(0).unwrap();
            assert_eq!((rows.len(), rows[0].raw_len), (1, u32::MAX), "{what}");
            let decode_error = |result: Result<_, TraceError>| {
                assert!(
                    matches!(result, Err(TraceError::Decode { .. })),
                    "{what}: {:?}",
                    result.err()
                );
            };
            decode_error(reader.lane_events(0).map(drop));
            decode_error(reader.lane_payload_bytes(0).map(drop));

            let writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
            let mut tailer = Tailer::follow(&dir, writer.commit_log());
            writer.close().unwrap();
            decode_error(tailer.next(std::time::Duration::from_secs(10)).map(|step| {
                assert!(!matches!(step, TailStep::Window(_)), "{what}");
            }));
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A CRC-valid frame is a claim about its event count too: an identity
/// frame whose meta says `u32::MAX` events — 64 GiB of `TraceEvent`s —
/// over a payload of one. Every path that decodes it answers with a typed
/// error: nothing is reserved on the claim, and the payload is held to it.
#[test]
fn a_crc_valid_frame_claiming_4g_events_is_a_typed_error() {
    let event = TraceEvent::new(Timestamp::from_nanos(0), EventTypeId::new(3), 9);
    let payload = Window::new(0, 0, 1, vec![event]).payload;
    for version in [2u8, 3] {
        let what = format!("v{version}");
        let dir = temp_dir(&format!("claim-events-v{version}"));
        let mut segment = segment_header(version, 0, 0);
        let raw_len = payload.len() as u32;
        segment.extend(crafted_frame(
            version,
            CodecId::Identity,
            u32::MAX,
            raw_len,
            &payload,
        ));
        std::fs::write(dir.join(SEGMENT), segment).unwrap();

        let decode_error = |result: Result<(), TraceError>, path: &str| {
            assert!(
                matches!(result, Err(TraceError::Decode { .. })),
                "{what} {path}: {result:?}"
            );
        };
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(
            reader.lane_windows(0).unwrap()[0].events,
            u32::MAX,
            "{what}"
        );
        let (from, to) = (Timestamp::from_nanos(0), Timestamp::from_nanos(1));
        decode_error(reader.lane_events(0).map(drop), "lane_events");
        decode_error(
            reader.window_events(0, WindowId::new(0)).map(drop),
            "window_events",
        );
        decode_error(
            reader.windows_in_range(0, from, to).map(drop),
            "windows_in_range",
        );
        let snapshot = reader.snapshot();
        decode_error(
            snapshot.window_events(0, WindowId::new(0)).map(drop),
            "snapshot window",
        );
        decode_error(snapshot.lane_events(0).map(drop), "snapshot lane");
        // The payload itself is what was written.
        assert_eq!(reader.lane_payload_bytes(0).unwrap(), payload, "{what}");
        drop((reader, snapshot));

        let writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
        let mut tailer = Tailer::follow(&dir, writer.commit_log());
        writer.close().unwrap();
        match tailer.next(std::time::Duration::from_secs(10)).unwrap() {
            TailStep::Window(window) => decode_error(window.events().map(drop), "tail"),
            other => panic!("{what}: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Two closed lanes packed by one pass — `windows()` as a v3 segment,
/// `golden_v4_windows()` as a v4 one — and what a reader makes of them.
struct PristinePack {
    lanes: Vec<(u32, Vec<Window>)>,
    pack: Vec<u8>,
    index: Vec<u8>,
    rows: Vec<Vec<WindowEntry>>,
    dir: std::path::PathBuf,
}

const PACK: &str = "pack000000.seg";
const PACK_INDEX: &str = "pack000000.idx";

impl PristinePack {
    fn build() -> Self {
        let dir = temp_dir("pack");
        let lanes = vec![(0, windows()), (1, golden_v4_windows())];
        for (lane, windows) in &lanes {
            let mut writer = LaneWriter::create(&dir, *lane, StoreConfig::default()).unwrap();
            for window in windows {
                window.record(&mut writer);
            }
            writer.close().unwrap();
        }
        let policy =
            MaintenancePolicy::merge_below(u64::MAX / 4).with_recompress(CodecId::DeltaVarint);
        let report = Compactor::new(&dir, policy).compact().unwrap();
        assert_eq!((report.packs_written, report.lanes_packed), (1, 2));
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, [PACK_INDEX, PACK]);
        let reader = StoreReader::open(&dir).unwrap();
        assert!(reader.recovery().clean);
        let rows = lanes
            .iter()
            .map(|(lane, _)| reader.lane_windows(*lane).unwrap().to_vec())
            .collect();
        PristinePack {
            pack: std::fs::read(dir.join(PACK)).unwrap(),
            index: std::fs::read(dir.join(PACK_INDEX)).unwrap(),
            lanes,
            rows,
            dir,
        }
    }

    /// Reads `pack` and `index` (none: no index) in place of the pristine
    /// files: the store fails to open with a typed error, or lists both
    /// lanes and answers every query with what was written or a typed
    /// error. Returns whether every lane replayed.
    fn read(&self, pack: &[u8], index: Option<&[u8]>, what: &str) -> bool {
        std::fs::write(self.dir.join(PACK), pack).unwrap();
        match index {
            Some(index) => std::fs::write(self.dir.join(PACK_INDEX), index).unwrap(),
            None => {
                let _ = std::fs::remove_file(self.dir.join(PACK_INDEX));
            }
        }
        let reader = match StoreReader::open(&self.dir) {
            Ok(reader) => reader,
            Err(TraceError::Decode { .. } | TraceError::Io(_)) => return false,
            Err(other) => panic!("{what}: untyped {other:?}"),
        };
        let lanes: Vec<u32> = self.lanes.iter().map(|(lane, _)| *lane).collect();
        assert_eq!(reader.lane_ids(), lanes, "{what}: the lanes of the pack");
        let snapshot = reader.snapshot();
        let mut whole = true;
        for ((lane, windows), rows) in self.lanes.iter().zip(&self.rows) {
            match reader.lane_windows(*lane) {
                Ok(listed) => assert_eq!(listed, rows.as_slice(), "{what}: lane {lane}"),
                Err(TraceError::Decode { .. } | TraceError::Io(_)) => {
                    whole = false;
                    continue;
                }
                Err(other) => panic!("{what}: {other:?}"),
            }
            for window in windows {
                let id = WindowId::new(window.id);
                for read in [
                    reader.window_payload(*lane, id),
                    snapshot.window_payload(*lane, id),
                ] {
                    match read {
                        Ok(Some(payload)) => assert_eq!(payload, window.payload, "{what}"),
                        Ok(None) => panic!("{what}: window {} vanished", window.id),
                        Err(TraceError::Decode { .. } | TraceError::Io(_)) => whole = false,
                        Err(other) => panic!("{what}: {other:?}"),
                    }
                }
            }
            let events: Vec<TraceEvent> = windows.iter().flat_map(|w| w.events.clone()).collect();
            match reader.lane_events(*lane) {
                Ok(replayed) => assert_eq!(replayed, events, "{what}: lane {lane}"),
                Err(TraceError::Decode { .. } | TraceError::Io(_)) => whole = false,
                Err(other) => panic!("{what}: {other:?}"),
            }
        }
        whole
    }

    /// A writer resumed on each lane of the damaged pack and closed, and a
    /// follower of it from the start: the resume fails typed, or the
    /// follower delivers the lane's windows — each one exactly as written —
    /// until it either closes after the last or stops at a typed error.
    /// Returns whether every lane was followed to its close.
    fn follow(&self, pack: &[u8], what: &str) -> bool {
        std::fs::write(self.dir.join(PACK), pack).unwrap();
        std::fs::write(self.dir.join(PACK_INDEX), &self.index).unwrap();
        let mut whole = true;
        for ((lane, windows), rows) in self.lanes.iter().zip(&self.rows) {
            let what = format!("{what} followed: lane {lane}");
            let writer = match LaneWriter::create(&self.dir, *lane, StoreConfig::default()) {
                Ok(writer) => writer,
                Err(TraceError::Decode { .. } | TraceError::Io(_)) => {
                    whole = false;
                    continue;
                }
                Err(other) => panic!("{what}: {other:?}"),
            };
            let mut tailer = Tailer::follow(&self.dir, writer.commit_log());
            match writer.close() {
                Ok(()) | Err(TraceError::Io(_)) => {}
                Err(other) => panic!("{what}: close: {other:?}"),
            }
            let mut delivered = 0;
            loop {
                match tailer.next(std::time::Duration::from_secs(10)) {
                    Ok(TailStep::Window(window)) => {
                        assert!(delivered < windows.len(), "{what}: a window too many");
                        assert_eq!(window.entry, rows[delivered], "{what}");
                        assert_eq!(window.payload, windows[delivered].payload, "{what}");
                        delivered += 1;
                    }
                    Ok(TailStep::Closed) => {
                        assert_eq!(delivered, windows.len(), "{what}: closed early");
                        break;
                    }
                    Ok(TailStep::TimedOut) => panic!("{what}: timed out behind a closed writer"),
                    Err(TraceError::Decode { .. } | TraceError::Io(_)) => {
                        whole = false;
                        break;
                    }
                    Err(other) => panic!("{what}: {other:?}"),
                }
            }
        }
        for entry in std::fs::read_dir(&self.dir).unwrap() {
            std::fs::remove_file(entry.unwrap().path()).unwrap();
        }
        whole
    }

    /// A pass over the damaged pack that drops each lane's oldest window,
    /// so that it rewrites every packed segment: it fails typed, or what
    /// it leaves replays as exactly the windows kept.
    fn compact(&self, pack: &[u8], what: &str) {
        std::fs::write(self.dir.join(PACK), pack).unwrap();
        std::fs::write(self.dir.join(PACK_INDEX), &self.index).unwrap();
        let span = |windows: &[Window]| {
            let newest = windows.iter().map(|w| w.end_ns).max().unwrap();
            newest - windows.iter().map(|w| w.end_ns).min().unwrap()
        };
        let retention = self
            .lanes
            .iter()
            .map(|(_, windows)| span(windows))
            .min()
            .unwrap();
        let policy = MaintenancePolicy::disabled().with_retention_ns(retention);
        match Compactor::new(&self.dir, policy).compact() {
            Err(TraceError::Decode { .. } | TraceError::Io(_)) => {}
            Err(other) => panic!("{what} compacted: {other:?}"),
            Ok(_) => {
                let reader = StoreReader::open(&self.dir).unwrap();
                for (lane, windows) in &self.lanes {
                    let newest = windows.iter().map(|w| w.end_ns).max().unwrap();
                    let kept: Vec<TraceEvent> = windows
                        .iter()
                        .filter(|w| w.end_ns > newest - retention)
                        .flat_map(|w| w.events.clone())
                        .collect();
                    match reader.lane_events(*lane) {
                        Ok(replayed) => assert_eq!(replayed, kept, "{what} compacted: {lane}"),
                        Err(TraceError::Decode { .. } | TraceError::Io(_)) => {}
                        Err(other) => panic!("{what} compacted: {other:?}"),
                    }
                }
            }
        }
        for entry in std::fs::read_dir(&self.dir).unwrap() {
            std::fs::remove_file(entry.unwrap().path()).unwrap();
        }
    }
}

/// Every truncation, bit flip and `0xFF` run of a pack (with its index
/// in place and without) and of its index (the pack intact): a pack is
/// written whole, so a damaged byte of it is a typed error — at open when
/// it breaks the pack's structure and there is no index to go by, when a
/// lane is read otherwise — and never a lane that is not there, a window
/// that differs or a panic, whether the lane is read cold, compacted or
/// followed behind a resumed writer; a damaged index costs a scan of the
/// pack and nothing else.
#[test]
fn no_byte_of_a_pack_can_make_a_reader_lie() {
    let pristine = PristinePack::build();
    let (pack, index) = (&pristine.pack, &pristine.index);
    assert!(pristine.read(pack, Some(index), "intact"));
    assert!(pristine.read(pack, None, "intact, no index"));
    assert!(pristine.follow(pack, "intact"));
    // Every bit of the index; two bits of each pack byte, which a
    // header's fields, a varint and a CRC field all still see. The first
    // flip of each byte is compacted, and followed behind resumed writers,
    // too.
    let damage = |bytes: &[u8], bits: &[usize]| -> Vec<(String, Vec<u8>, bool)> {
        let mut damaged = Vec::new();
        for cut in 0..bytes.len() {
            damaged.push((format!("cut at {cut}"), bytes[..cut].to_vec(), false));
        }
        for at in 0..bytes.len() {
            for (nth, bit) in bits.iter().map(|bit| (at + bit) % 8).enumerate() {
                let mut flipped = bytes.to_vec();
                flipped[at] ^= 1 << bit;
                damaged.push((format!("bit {bit} of byte {at} flipped"), flipped, nth == 0));
            }
            for run in [1, 2, 5, 10] {
                let mut smeared = bytes.to_vec();
                smeared[at..(at + run).min(bytes.len())].fill(0xFF);
                if smeared != bytes {
                    damaged.push((format!("{run} x 0xFF at {at}"), smeared, false));
                }
            }
        }
        damaged
    };
    for (what, damaged, compact) in damage(pack, &[0, 4]) {
        pristine.read(&damaged, Some(index), &format!("pack: {what}"));
        pristine.read(&damaged, None, &format!("pack, no index: {what}"));
        if compact {
            pristine.compact(&damaged, &format!("pack: {what}"));
            pristine.follow(&damaged, &format!("pack: {what}"));
        }
    }
    for (what, damaged, _) in damage(index, &[0, 1, 2, 3, 4, 5, 6, 7]) {
        assert!(
            pristine.read(pack, Some(&damaged), &format!("index: {what}")),
            "index: {what}: a declined index costs a scan, not a window"
        );
    }
    std::fs::remove_dir_all(&pristine.dir).ok();
}
