//! Shared by `format_compat`, `speed_equivalence`, `hostile_segments` and
//! `compaction`: windows with arbitrary frame meta, payloads of an exact
//! encoded length, the only v2 *writer* left anywhere — a fixture builder
//! that lays the frames of FORMAT.md §2.2 out by hand, as the builds that
//! wrote v2 did — schema-3 sidecars laid out the same way, lanes
//! compressed the one way a lane is, and the checked-in bytes of a v2
//! store and a v3 segment that earlier builds wrote, `LZB` frames
//! included, which nothing writes any more.

#![allow(dead_code)] // each test file uses its own part

use endurance_store::{
    crc32, CodecId, Compactor, LaneWriter, MaintenancePolicy, StoreConfig, WindowEntry,
};
use trace_model::codec::{BinaryEncoder, TraceEncoder};
use trace_model::{EventSink, EventTypeId, RecordMeta, Severity, Timestamp, TraceEvent, WindowId};

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

/// The stored block of `window`'s payload under `codec`'s context-free
/// compress (the `EDV` block v2 builds wrote), and the codec it ended up
/// under — identity when the codec refuses, as every writer does it.
pub fn stored_block(window: &Window, codec: CodecId) -> (CodecId, Vec<u8>) {
    let mut block = Vec::new();
    if codec != CodecId::Identity
        && codec
            .new_codec()
            .compress(&window.payload, &mut block)
            .unwrap()
    {
        (codec, block)
    } else {
        (CodecId::Identity, window.payload.clone())
    }
}

/// One v2 frame, by hand: `u32` length, `u32` CRC, 33 bytes of
/// fixed-width meta, the stored block.
pub fn v2_frame(window: &Window, codec: CodecId) -> Vec<u8> {
    let (codec, block) = stored_block(window, codec);
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

/// Records `windows` into `lane` of `dir` in runs of `per_segment`, one
/// writer session (and one v1 segment) a run, and — unless `codec` is
/// identity — has a `Compactor` pass recompress each run into a v3
/// segment before the next is appended: what a writer configured with
/// `codec` left, segment for segment, when writers still compressed.
pub fn write_compressed_lane(
    dir: &std::path::Path,
    lane: u32,
    windows: &[Window],
    per_segment: usize,
    codec: CodecId,
) {
    std::fs::create_dir_all(dir).unwrap();
    let config = StoreConfig::default().with_segment_max_windows(per_segment as u64);
    for run in windows.chunks(per_segment) {
        let mut writer = LaneWriter::create(dir, lane, config).unwrap();
        for window in run {
            window.record(&mut writer);
        }
        writer.close().unwrap();
        if codec != CodecId::Identity {
            let policy = MaintenancePolicy::disabled().with_recompress(codec);
            Compactor::new(dir, policy).compact_lane(lane).unwrap();
        }
    }
}

/// A schema-3 `lane0000.idx` (FORMAT.md §4) of `segments` — `(seq,
/// committed bytes, version)` — and `rows`.
pub fn schema_3_sidecar(segments: &[(u32, u64, u8)], rows: &[WindowEntry]) -> Vec<u8> {
    let mut out = b"EIDX".to_vec();
    for field in [3, 0, segments.len() as u32] {
        out.extend_from_slice(&field.to_le_bytes());
    }
    out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    for &(seq, committed_bytes, version) in segments {
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&committed_bytes.to_le_bytes());
        out.push(version);
    }
    for row in rows {
        for field in [row.window_id, row.start_ns, row.end_ns] {
            out.extend_from_slice(&field.to_le_bytes());
        }
        for field in [row.events, row.segment] {
            out.extend_from_slice(&field.to_le_bytes());
        }
        out.extend_from_slice(&row.offset.to_le_bytes());
        out.extend_from_slice(&row.len.to_le_bytes());
        out.push(row.codec);
        out.extend_from_slice(&row.raw_len.to_le_bytes());
    }
    out.extend_from_slice(&crc32(&out).to_le_bytes());
    out
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

pub fn window_events(id: u64, count: usize) -> Vec<TraceEvent> {
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

pub fn unhex(hex: &str) -> Vec<u8> {
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

/// What `write_v2_fixture` — this file's `window_events`, two to twelve
/// events a window, five windows, three to a segment, lane 0 under
/// `DeltaVarint` and lane 1 under `LzBlock` — left on disk when run
/// against the last build whose writer emitted format v2 (commit
/// `259fd36`): a real v2 directory, sidecars included, not a
/// reconstruction. Both codecs refused the two-event windows, so each
/// lane holds identity frames too.
pub const PARENT_V2_STORE: [(&str, &str); 6] = [
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
pub fn parent_v2_windows() -> Vec<Window> {
    (0..5u64)
        .map(|id| {
            let events = window_events(id, 2 + (id % 3) as usize * 5);
            let (start, end) = (events[0].timestamp, events.last().unwrap().timestamp);
            Window::new(id, start.as_nanos(), end.as_nanos() + 1, events)
        })
        .collect()
}

/// `lane0000-000000.seg` of `golden_v3_windows`, as FORMAT.md §2.2 lays
/// format v3 out: the 13-byte header, then per frame a varint body
/// length, the CRC-32, six meta fields coded against the frame before,
/// and the stored block. Read the second frame, `38 467a6b8b 02 00 00
/// 06 00 32 …`: a 56-byte body; id one past its predecessor's
/// (`zigzag(1) = 2`), starting where that one ended, lasting as long;
/// six events; identity; 50 raw bytes. Six bytes of meta where v2
/// spent 33, five of header where it spent eight.
pub const GOLDEN_V3_SEG: &str = "\
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

/// `lane0000-000000.seg` of `golden_packed_windows`, as a pass targeting
/// `DeltaVarint` writes it (FORMAT.md §3.3): packed rows, but for the
/// fourth frame, whose one event type and steady payloads `EDV` stores
/// smaller. Read the first frame, `26 81c1e3da 9003 80c0b2cd3b 80e89226
/// 05 03 26 b717 01 05 …`: a 38-byte body; window 200, 8 s in, 40 ms
/// long; five events; packed; 38 raw bytes; then the rows, the first
/// opening with `zigzag(−1500)` — its event falls 1.5 µs before the
/// window does — and `(type 0 << 2) | Info`, payload 5. The third frame,
/// `06 5ef6443e 02 00 00 00 03 06`, is an empty window: meta, no block.
pub const GOLDEN_PACKED_V3_SEG: &str = "\
     455345470300000000000000002681c1e3da900380c0b2cd3b80e89226050326\
     b717010580897a050680897a090780897a010880897a0509712eaa08a5020000\
     12038501f80a0103e5a386010503e5a386010903e5a386010d03e5a386011103\
     e5a386011503e5a386010104e5a386010504e5a386010904e5a386010d04e5a3\
     86011104e5a386011504e5a386010105e5a386010505f19f86010905e5a38601\
     0d05e5a386011105e5a386011505065ef6443e0200000003068c01cddac58402\
     00002801a0022880bcf59f1ec1843dc1843dbe843dc1843dc1843dbe843dc184\
     3dc1843dbe843dc1843dc1843dbe843dc1843dc1843dbe843dc1843dc1843dbe\
     843dc1843dc1843dbe843dc1843dc1843dbe843dc1843dc1843dbe843dc1843d\
     c1843dbe843dc1843dc1843dbe843dc1843dc1843dbe843dc1843dc1843dbe84\
     3d0104010101d00f010227170e45493702000003031d14ffff0fffffffff0f00\
     0000009601ac02";

/// Five windows, 40 ms each, back to back: the first event of the first
/// before its window opens, eighteen events of six types (the paper's
/// 40 ms window), none, forty of one type, and three with the extremes —
/// `u16::MAX` and `u32::MAX`, every severity but `Info`, one timestamp.
pub fn golden_packed_windows() -> Vec<Window> {
    (0..5u64)
        .map(|at| {
            let id = 200 + at;
            let start_ns = id * 40_000_000;
            let event = |ns: u64, ty: u16, payload: u32| {
                TraceEvent::new(Timestamp::from_nanos(ns), EventTypeId::new(ty), payload)
            };
            let events: Vec<TraceEvent> = match at {
                0 => (0..5)
                    .map(|i| {
                        event(
                            start_ns - 1_500 + i * 2_000_000,
                            (i % 3) as u16,
                            5 + i as u32,
                        )
                    })
                    .collect(),
                1 => (0..18)
                    .map(|i| {
                        let ns = start_ns + 700 + i * 2_200_000 + (i * 37) % 500;
                        event(ns, (i % 6) as u16, (i / 6) as u32 + 3)
                    })
                    .collect(),
                2 => Vec::new(),
                3 => (0..40)
                    .map(|i| event(start_ns + i * 1_000_000 + i % 3, 4, 1_000 + i as u32))
                    .collect(),
                _ => vec![
                    event(start_ns + 10, u16::MAX, u32::MAX).with_severity(Severity::Error),
                    event(start_ns + 10, 0, 0).with_severity(Severity::Debug),
                    event(start_ns + 10, 37, 300).with_severity(Severity::Warning),
                ],
            };
            Window::new(id, start_ns, start_ns + 40_000_000, events)
        })
        .collect()
}

/// Twelve windows, six recorded under `DeltaVarint` and six under
/// `LzBlock` (each refuses its smallest), 40 ms each, back to back but
/// for a hole of two windows in the ids and the clock before the
/// eighth, a window of no length and no events, and one that ends
/// before it starts.
pub fn golden_v3_windows() -> Vec<Window> {
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

/// `lane0000-000000.seg` of `golden_v4_windows`, as a pass targeting
/// `DeltaVarint` writes it (FORMAT.md §2.1, §3.4): the 13-byte header
/// with version 4, then the template table section — `23 a7e3a544`, 35
/// bytes and their CRC-32 — holding `02` templates: `06` rows of shape
/// A, `(01, e807)` first (type 0, `Info`, payload 1 000), and `05` of
/// shape B, each the rows of the first window of its shape. Then v3
/// frames. Six are templated; read the fifth, `22 0062e5dc 02 00 00 06
/// 04 38 00 01 04 f0a204 …`: a 34-byte body; id, start and span one
/// window on; six events; templated; 56 raw bytes; template 0 with one
/// exception, at row 4, payload 70 000; then the time column. The last
/// window has a shape of its own and stays packed rows (codec `03`).
pub const GOLDEN_V4_SEG: &str = "\
     4553454704000000000000000023a7e3a544020601e80705e90709ea0701eb07\
     05ec0709ed07050d000dc80111900311d80415a00626032ec425d80480e08bb4\
     5980e892260604370000a0068b9bee028b9bee028b9bee028b9bee028b9bee02\
     1a260f446a02000005042e0100ea068b9bee028b9bee028b9bee028b9bee021e\
     4a4929a70200000604370000b4078b9bee028b9bee028b9bee028b9bee028b9b\
     ee021a7b4fe9c802000005042e0100fe078b9bee028b9bee028b9bee028b9bee\
     02220062e5dc020000060438000104f0a204c8088b9bee028b9bee028b9bee02\
     8b9bee028b9bee021ab706ff7202000005042e010092098b9bee028b9bee028b\
     9bee028b9bee021cfe81f71e020000040323dc091d288b9bee0221298b9bee02\
     252a8b9bee021d2b";

/// Seven windows, 40 ms each, back to back: shapes A (six events of
/// three types) and B (five events of three other types) alternating
/// three times each — the fifth window, of shape A, with one payload of
/// its own — and a last window whose four events have a shape no other
/// window has.
pub fn golden_v4_windows() -> Vec<Window> {
    (0..7u64)
        .map(|at| {
            let id = 300 + at;
            let start_ns = id * 40_000_000;
            let event = |row: u64, ty: u16, payload: u32| {
                let ns = start_ns + 400 + row * 6_000_000 + (at * 37 + row * 11) % 900;
                TraceEvent::new(Timestamp::from_nanos(ns), EventTypeId::new(ty), payload)
            };
            let events: Vec<TraceEvent> = match at {
                6 => (0..4)
                    .map(|row| event(row, [7, 8, 9, 7][row as usize], 40 + row as u32))
                    .collect(),
                _ if at % 2 == 0 => (0..6)
                    .map(|row| {
                        let payload = if at == 4 && row == 4 {
                            70_000
                        } else {
                            1_000 + row as u32
                        };
                        event(row, (row % 3) as u16, payload)
                    })
                    .collect(),
                _ => (0..5)
                    .map(|row| event(row, [3, 3, 4, 4, 5][row as usize], 200 * row as u32))
                    .collect(),
            };
            Window::new(id, start_ns, start_ns + 40_000_000, events)
        })
        .collect()
}
