//! Shared by `format_compat`, `speed_equivalence` and `hostile_segments`:
//! windows with arbitrary frame meta, payloads of an exact encoded
//! length, and the only v2 *writer* left anywhere — a fixture builder
//! that lays the frames of FORMAT.md §2.2 out by hand, as the builds
//! that wrote v2 did.

#![allow(dead_code)] // each test file uses its own part

use endurance_store::{crc32, CodecId, LaneWriter, WindowEntry};
use trace_model::codec::{BinaryEncoder, TraceEncoder};
use trace_model::{EventSink, EventTypeId, RecordMeta, Timestamp, TraceEvent, WindowId};

/// One recorded window: what the recorder hands the sink.
#[derive(Debug, Clone)]
pub struct Window {
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub events: Vec<TraceEvent>,
    /// The canonical `ETRC` encoding of `events`.
    pub payload: Vec<u8>,
}

impl Window {
    pub fn new(id: u64, start_ns: u64, end_ns: u64, events: Vec<TraceEvent>) -> Self {
        let mut payload = Vec::new();
        BinaryEncoder::new().encode(&events, &mut payload).unwrap();
        Window {
            id,
            start_ns,
            end_ns,
            events,
            payload,
        }
    }

    /// The fields every format must hand back unchanged, in the shape
    /// readers report them.
    pub fn fields(&self) -> (u64, u64, u64, u32, u32) {
        (
            self.id,
            self.start_ns,
            self.end_ns,
            self.events.len() as u32,
            self.payload.len() as u32,
        )
    }

    pub fn record(&self, writer: &mut LaneWriter) {
        let meta = RecordMeta {
            window_id: WindowId::new(self.id),
            start: Timestamp::from_nanos(self.start_ns),
            end: Timestamp::from_nanos(self.end_ns),
        };
        writer
            .record_window(&meta, &self.events, &self.payload)
            .unwrap();
    }
}

/// The fields of [`Window::fields`], out of an index row.
pub fn entry_fields(entry: &WindowEntry) -> (u64, u64, u64, u32, u32) {
    (
        entry.window_id,
        entry.start_ns,
        entry.end_ns,
        entry.events,
        entry.raw_len,
    )
}

/// Events (from `first_ns` on, 100 ns apart) whose canonical
/// `ETRC` encoding is exactly `len` bytes — for raw lengths on either
/// side of a varint edge. `len` must leave room for the 5-byte block
/// header, the count and one event.
pub fn events_encoding_to(len: usize, first_ns: u64) -> Vec<TraceEvent> {
    // Four bytes an event at the least (delta, type, payload, severity);
    // a wider payload value buys up to four more.
    const WIDTH_FLOORS: [u32; 5] = [0, 1 << 7, 1 << 14, 1 << 21, 1 << 28];
    let encoded_len = |events: &[TraceEvent]| {
        let mut bytes = Vec::new();
        BinaryEncoder::new().encode(events, &mut bytes).unwrap();
        bytes.len()
    };
    let mut count = (len / 8).max(1);
    loop {
        let mut events: Vec<TraceEvent> = (0..count as u64)
            .map(|i| {
                TraceEvent::new(
                    Timestamp::from_nanos(first_ns + i * 100),
                    EventTypeId::new((i % 7) as u16),
                    0,
                )
            })
            .collect();
        let floor = encoded_len(&events);
        assert!(floor <= len, "no room for {len} bytes from {first_ns}");
        let mut missing = len - floor;
        for event in &mut events {
            let extra = missing.min(4);
            event.payload = WIDTH_FLOORS[extra];
            missing -= extra;
        }
        if missing == 0 {
            assert_eq!(encoded_len(&events), len);
            return events;
        }
        count += 1;
    }
}

/// The stored block of `payload` under `codec`, and the codec it ended
/// up under — identity when the codec refuses, as every writer does it.
pub fn stored_block(payload: &[u8], codec: CodecId) -> (CodecId, Vec<u8>) {
    let mut block = Vec::new();
    if codec != CodecId::Identity && codec.new_codec().compress(payload, &mut block).unwrap() {
        (codec, block)
    } else {
        (CodecId::Identity, payload.to_vec())
    }
}

/// One v2 frame, by hand: `u32` length, `u32` CRC, 33 bytes of
/// fixed-width meta, the stored block.
pub fn v2_frame(window: &Window, codec: CodecId) -> Vec<u8> {
    let (codec, block) = stored_block(&window.payload, codec);
    let mut body = Vec::new();
    body.extend_from_slice(&window.id.to_le_bytes());
    body.extend_from_slice(&window.start_ns.to_le_bytes());
    body.extend_from_slice(&window.end_ns.to_le_bytes());
    body.extend_from_slice(&(window.events.len() as u32).to_le_bytes());
    body.push(codec.as_u8());
    body.extend_from_slice(&(window.payload.len() as u32).to_le_bytes());
    body.extend_from_slice(&block);
    let mut frame = Vec::new();
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// The 13-byte segment header.
pub fn segment_header(version: u8, lane: u32, seq: u32) -> Vec<u8> {
    let mut header = b"ESEG".to_vec();
    header.push(version);
    header.extend_from_slice(&lane.to_le_bytes());
    header.extend_from_slice(&seq.to_le_bytes());
    header
}

/// Writes `windows` as one v2 segment file, the way a v2-writing build's
/// `LaneWriter` under `codec` left it.
pub fn write_v2_segment(
    dir: &std::path::Path,
    lane: u32,
    seq: u32,
    windows: &[Window],
    codec: CodecId,
) {
    let mut file = segment_header(2, lane, seq);
    for window in windows {
        file.extend_from_slice(&v2_frame(window, codec));
    }
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join(format!("lane{lane:04}-{seq:06}.seg")), file).unwrap();
}

/// Every file of a store directory, by name.
pub fn dir_contents(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            (
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).unwrap(),
            )
        })
        .collect()
}

/// The segment files of `lane`: `(sequence, format version, path)`.
pub fn segment_files(dir: &std::path::Path, lane: u32) -> Vec<(u32, u8, std::path::PathBuf)> {
    let prefix = format!("lane{lane:04}-");
    let mut files: Vec<_> = dir_contents(dir)
        .into_iter()
        .filter_map(|(name, bytes)| {
            let seq = name.strip_prefix(&prefix)?.strip_suffix(".seg")?;
            Some((seq.parse().ok()?, bytes[4], dir.join(&name)))
        })
        .collect();
    files.sort();
    files
}
