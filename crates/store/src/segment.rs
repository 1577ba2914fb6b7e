//! The on-disk segment format and the recovery scanner.
//!
//! A segment file is:
//!
//! ```text
//! magic    "ESEG"        4 bytes
//! version                1 byte  (1, 2, 3 or 4)
//! lane                   4 bytes u32 LE
//! segment sequence       4 bytes u32 LE
//! template table         (v4 only) varint length L, u32 LE CRC-32 of
//!                        the L bytes, the L bytes
//! frames...
//! ```
//!
//! and every frame is a length, a CRC-32 (IEEE, see `crc32`) of the body,
//! and the body — meta, then the stored block:
//!
//! ```text
//! v1 / v2                                  v3 / v4
//! body length     u32 LE                   varint (minimal, <= 2^30)
//! crc32 of body   u32 LE                   u32 LE
//! window id       u64 LE                   varint zigzag(id - prev id)
//! window start    u64 LE (ns)              varint zigzag(start - prev end)
//! window end      u64 LE (ns)              varint zigzag(span - prev span)
//! event count     u32 LE                   varint
//! codec id        1 byte      (v2 only)    1 byte
//! raw length      u32 LE      (v2 only)    varint
//! stored block    the payload under the frame's codec
//! ```
//!
//! In a version-1 segment the stored block *is* the payload (the exact
//! bytes the recorder handed to the sink). Versions 2 and 3 carry a
//! codec id (see `trace_model::codec::CodecId`) and the uncompressed
//! length per frame; codec id 0 (identity) keeps the payload verbatim.
//! Version 3 codes id, start and span (`end - start`) against the frame
//! before it in the segment — `(0, 0, 0)` at a segment's first frame,
//! wrapping arithmetic — so a window that follows its predecessor costs
//! three bytes where v2 spends twenty-four. Version 4 frames are v3's; its
//! template table is what the templated blocks of the segment name their
//! window shapes in. Either way a replayed trace
//! is byte-for-byte what an in-memory sink would have kept. The version
//! byte in the file header governs every frame in the file; version 2 is
//! read, never written. `docs/FORMAT.md` is the normative spec;
//! [`encode_frame`] and [`read_frame`] are the one place in the crate
//! that knows the layouts above; every varint and zigzag in them, and in
//! the sidecar rows, is `trace_model::codec::varint`'s.
//!
//! A process killed mid-write leaves a torn final frame; the scanner
//! validates length and CRC frame by frame and reports where the intact
//! prefix ends so reopen can truncate the tail. The CRC covers the
//! *stored* bytes, so scanning never needs to run a codec.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::ops::Range;
use std::path::Path;

use trace_model::codec::varint::{encode_u64, take_minimal_u64, unzigzag, varint_len, zigzag};
use trace_model::codec::{CodecId, FrameContext, TemplateTable};
use trace_model::TraceError;

use crate::crc32::crc32;
use crate::index::{
    FallbackReason, LaneIndex, SegmentMeta, TornTail, WindowEntry, SIDECAR_SCHEMA,
    SIDECAR_SCHEMA_V3,
};
use crate::pack::{load_pack, Pack, PackedLane, PackedSegment};

/// Magic bytes opening every segment file.
pub(crate) const SEGMENT_MAGIC: &[u8; 4] = b"ESEG";
/// Segment format version writing one raw payload per frame.
pub(crate) const SEGMENT_VERSION_V1: u8 = 1;
/// Segment format version carrying a codec id + raw length per frame
/// behind fixed-width meta. Read only.
pub(crate) const SEGMENT_VERSION_V2: u8 = 2;
/// Segment format version carrying the v2 fields as varints coded
/// against the previous frame of the segment.
pub(crate) const SEGMENT_VERSION_V3: u8 = 3;
/// Segment format version whose header is followed by a template table;
/// its frames are v3's.
pub(crate) const SEGMENT_VERSION_V4: u8 = 4;
/// Size of the segment header in bytes.
pub(crate) const SEGMENT_HEADER_LEN: u64 = 13;
/// Size of a v1/v2 frame header (body length + crc) in bytes.
const FRAME_HEADER_LEN: u64 = 8;
/// Size of the fixed frame meta block inside a v1 body.
pub(crate) const FRAME_META_LEN: usize = 28;
/// Upper bound on a frame body, guarding recovery against absurd lengths
/// read from corrupt headers.
const MAX_FRAME_BODY: u32 = 1 << 30;
/// The longest frame meta of any version, v3's: three ten-byte varints
/// (id, start and span deltas), two five-byte ones (event count, raw
/// length) and the codec byte.
const MAX_META_LEN: usize = 3 * 10 + 2 * 5 + 1;
/// The largest block a writer frames: behind the longest meta of any
/// version its body stays within [`MAX_FRAME_BODY`], so the frame and
/// every rewrite of it stay readable — a longer body reads as a torn
/// length, and the next resume would truncate a committed window.
pub(crate) const MAX_FRAME_BLOCK: usize = MAX_FRAME_BODY as usize - MAX_META_LEN;
/// Upper bound on a v4 segment's template table, as on a frame body.
pub(crate) const MAX_TABLE_BYTES: usize = MAX_FRAME_BODY as usize;

/// Whether `version` is a segment format this build can read.
pub(crate) fn known_segment_version(version: u8) -> bool {
    (SEGMENT_VERSION_V1..=SEGMENT_VERSION_V4).contains(&version)
}

/// The fewest meta bytes a body of a `version` segment can open with
/// (all of them, for the fixed-width versions).
fn frame_meta_len(version: u8) -> usize {
    match version {
        SEGMENT_VERSION_V1 => FRAME_META_LEN,
        // v1's plus a codec byte and a 4-byte raw length.
        SEGMENT_VERSION_V2 => FRAME_META_LEN + 5,
        // Five one-byte varints and the codec byte.
        _ => 6,
    }
}

/// Bytes of frame header (length field + CRC) in front of a body of
/// `body_len` bytes.
fn frame_header_len(version: u8, body_len: u32) -> u64 {
    if version >= SEGMENT_VERSION_V3 {
        varint_len(u64::from(body_len)) as u64 + 4
    } else {
        FRAME_HEADER_LEN
    }
}

/// Where the frame an index row describes ends within its segment file
/// — `None` for a row no frame of a `version` segment can match: a body
/// shorter than the version's meta, or an end that wraps around.
pub(crate) fn frame_end(version: u8, entry: &WindowEntry) -> Option<u64> {
    if (entry.len as usize) < frame_meta_len(version) {
        return None;
    }
    entry
        .offset
        .checked_add(frame_header_len(version, entry.len) + u64::from(entry.len))
}

/// File name of segment `seq` of `lane`: zero-padded so lexicographic
/// order is numeric order.
pub(crate) fn segment_file_name(lane: u32, seq: u32) -> String {
    format!("lane{lane:04}-{seq:06}.seg")
}

/// File name of the sidecar index of `lane`.
pub(crate) fn sidecar_file_name(lane: u32) -> String {
    format!("lane{lane:04}.idx")
}

/// File name of the JSON sidecar earlier builds wrote for `lane`: read
/// when no `.idx` is present, removed by the lane's next sidecar write.
pub(crate) fn legacy_sidecar_file_name(lane: u32) -> String {
    format!("lane{lane:04}.idx.json")
}

/// File name of the merge journal of `lane`.
pub(crate) fn manifest_file_name(lane: u32) -> String {
    format!("lane{lane:04}.compact.json")
}

/// File name of pack `pack` (`docs/FORMAT.md` §1): zero-padded to 6
/// digits like a segment sequence number.
pub(crate) fn pack_file_name(pack: u32) -> String {
    format!("pack{pack:06}.seg")
}

/// File name of the index of pack `pack`.
pub(crate) fn pack_index_file_name(pack: u32) -> String {
    format!("pack{pack:06}.idx")
}

/// What a store directory entry is, per `docs/FORMAT.md` §1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StoreFile {
    /// `laneLLLL-SSSSSS.seg`, carrying its sequence number.
    Segment(u32),
    /// `laneLLLL.idx`.
    Sidecar,
    /// `laneLLLL.idx.json`, the sidecar of builds before schema 3.
    LegacySidecar,
    /// `laneLLLL.compact.json`.
    Journal,
    /// An in-flight temp file: a segment's or the journal's
    /// `….compact.tmp`, or either sidecar's `….tmp`.
    Temp,
}

/// Inverts the name builders above (and the temp names their writers
/// derive from them): the lane a directory entry belongs to and what it
/// is, or `None` for a name the store does not write.
pub(crate) fn classify_file_name(name: &str) -> Option<(u32, StoreFile)> {
    let (lane, rest) = split_padded(name.strip_prefix("lane")?, 4)?;
    let file = match rest {
        ".idx" => StoreFile::Sidecar,
        ".idx.json" => StoreFile::LegacySidecar,
        ".compact.json" => StoreFile::Journal,
        ".idx.tmp" | ".idx.json.tmp" | ".compact.json.compact.tmp" => StoreFile::Temp,
        _ => match split_padded(rest.strip_prefix('-')?, 6)? {
            (seq, ".seg") => StoreFile::Segment(seq),
            (_, ".seg.compact.tmp") => StoreFile::Temp,
            _ => return None,
        },
    };
    Some((lane, file))
}

/// What a pack's directory entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PackFile {
    /// `packPPPPPP.seg`.
    Data,
    /// `packPPPPPP.idx`.
    Index,
    /// `packPPPPPP.seg.compact.tmp` or `packPPPPPP.idx.tmp`.
    Temp,
}

/// [`classify_file_name`] for the names of packs, which belong to no lane:
/// the pack number and what the entry is, or `None`.
pub(crate) fn classify_pack_name(name: &str) -> Option<(u32, PackFile)> {
    let (pack, rest) = split_padded(name.strip_prefix("pack")?, 6)?;
    let file = match rest {
        ".seg" => PackFile::Data,
        ".idx" => PackFile::Index,
        ".seg.compact.tmp" | ".idx.tmp" => PackFile::Temp,
        _ => return None,
    };
    Some((pack, file))
}

/// Splits a leading number off `text`, accepting it only as
/// `{:0width$}` prints it — zero-padded to `width`, wider only without a
/// leading zero — so that every classified name is one the store writes
/// and numbers are read whole (lane 1234 never matches lane 12345).
fn split_padded(text: &str, width: usize) -> Option<(u32, &str)> {
    let digits = text.bytes().take_while(u8::is_ascii_digit).count();
    let (number, rest) = text.split_at(digits);
    if digits < width || (digits > width && number.starts_with('0')) {
        return None;
    }
    Some((number.parse().ok()?, rest))
}

/// The files of one lane that a directory listing saw.
#[derive(Debug, Default)]
pub(crate) struct LaneFiles {
    /// Sequence numbers of the lane's own segment files, ascending — past
    /// its packed segment's, when it has one.
    pub seqs: Vec<u32>,
    /// Whether the merge journal is present.
    pub journal: bool,
    /// Whether a legacy JSON sidecar is present (for the lane's next
    /// sidecar write to remove).
    pub legacy_sidecar: bool,
    /// Whether `laneLLLL.idx` is present.
    pub sidecar: bool,
    /// Names of the lane's in-flight temp files.
    pub temps: Vec<String>,
    /// The lane's segment in the newest pack that holds it.
    pub packed: Option<PackedLane>,
    /// Own segment files that pack entry superseded: a crash left them
    /// behind after the pack was committed (`docs/FORMAT.md` §5.3).
    pub superseded: Vec<u32>,
}

impl LaneFiles {
    /// The packed segment of the lane, when it holds windows: an empty
    /// one only stands in front of what it superseded.
    pub(crate) fn packed_segment(&self) -> Option<&PackedSegment> {
        self.packed.as_ref().and_then(PackedLane::with_frames)
    }

    /// Whether the lane has a segment a reader replays.
    pub(crate) fn has_segments(&self) -> bool {
        !self.seqs.is_empty() || self.packed_segment().is_some()
    }
}

/// What one listing of a store directory found.
#[derive(Debug, Default)]
pub(crate) struct StoreListing {
    /// Lanes by id (only the lane asked for, when one was).
    pub lanes: BTreeMap<u32, LaneFiles>,
    /// Every pack, ascending by number, whatever lane was asked for.
    pub packs: Vec<Pack>,
    /// Pack temp files and indexes of packs that are gone.
    pub pack_leftovers: Vec<String>,
    /// The highest pack number a listed name uses.
    pub last_pack: Option<u32>,
}

/// Lists a store directory, once, by lane (only the lane `only` when
/// given). Every store operation takes one listing when it starts and
/// works from it. Packs are loaded whole — each one's index, or a scan of
/// the pack when its index cannot be trusted — since any of them can hold
/// a lane: each lane is given the entry of the newest pack that holds it,
/// and its own segment files up to that entry's sequence number are set
/// apart as superseded.
///
/// # Errors
///
/// [`TraceError::Io`] when the directory cannot be listed or a pack
/// read, and [`TraceError::Decode`] for a pack whose index is declined
/// and whose bytes do not scan (`docs/FORMAT.md` §2.4).
pub(crate) fn list_store_dir(
    dir: &std::path::Path,
    only: Option<u32>,
) -> Result<StoreListing, TraceError> {
    let mut listing = StoreListing::default();
    let mut packs: BTreeMap<u32, (bool, bool)> = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some((pack, file)) = classify_pack_name(name) {
            listing.last_pack = listing.last_pack.max(Some(pack));
            let (data, index) = packs.entry(pack).or_default();
            match file {
                PackFile::Data => *data = true,
                PackFile::Index => *index = true,
                PackFile::Temp => listing.pack_leftovers.push(name.to_owned()),
            }
            continue;
        }
        let Some((lane, file)) = classify_file_name(name) else {
            continue;
        };
        if only.is_some_and(|only| only != lane) {
            continue;
        }
        let files = listing.lanes.entry(lane).or_default();
        match file {
            StoreFile::Segment(seq) => files.seqs.push(seq),
            StoreFile::Journal => files.journal = true,
            StoreFile::LegacySidecar => files.legacy_sidecar = true,
            StoreFile::Temp => files.temps.push(name.to_owned()),
            StoreFile::Sidecar => files.sidecar = true,
        }
    }
    for (pack, (data, index)) in packs {
        if data {
            listing.packs.push(load_pack(dir, pack, index)?);
        } else if index {
            listing.pack_leftovers.push(pack_index_file_name(pack));
        }
    }
    // The newest pack holding a lane is the one that counts.
    let mut newest: BTreeMap<u32, PackedLane> = BTreeMap::new();
    for pack in &listing.packs {
        for entry in &pack.entries {
            newest.insert(entry.segment.lane, PackedLane::of(pack, entry));
        }
    }
    for (lane, packed) in newest {
        if only.is_some_and(|only| only != lane) {
            continue;
        }
        let files = listing.lanes.entry(lane).or_default();
        files.packed = Some(packed);
    }
    for files in listing.lanes.values_mut() {
        files.seqs.sort_unstable();
        if let Some(packed) = &files.packed {
            let live = files.seqs.partition_point(|&seq| seq <= packed.segment.seq);
            files.superseded = files.seqs.drain(..live).collect();
        }
    }
    Ok(listing)
}

/// One lane's files out of a listing of the whole directory (empty when
/// the lane has none).
pub(crate) fn list_lane(dir: &std::path::Path, lane: u32) -> Result<LaneFiles, TraceError> {
    Ok(list_store_dir(dir, Some(lane))?
        .lanes
        .remove(&lane)
        .unwrap_or_default())
}

/// Serialises the 13-byte segment header.
pub(crate) fn segment_header(
    lane: u32,
    seq: u32,
    version: u8,
) -> [u8; SEGMENT_HEADER_LEN as usize] {
    let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
    header[..4].copy_from_slice(SEGMENT_MAGIC);
    header[4] = version;
    header[5..9].copy_from_slice(&lane.to_le_bytes());
    header[9..13].copy_from_slice(&seq.to_le_bytes());
    header
}

/// What a reader needs of a segment before its first frame: the format
/// version and, in v4, the template table between the header and the
/// frames.
#[derive(Debug)]
pub(crate) struct SegmentHead {
    pub version: u8,
    pub table: TemplateTable,
    /// Where the first frame starts: past the header and the table.
    pub frames_start: u64,
}

impl SegmentHead {
    /// Validates the head of the segment file `bytes` (at `path`) as
    /// segment `seq` of `lane`: the 13-byte header and, in v4, the table
    /// section after it. The one header check, of the scanner and of
    /// every reader.
    ///
    /// # Errors
    ///
    /// [`TraceError::Decode`] for a file shorter than the header, a bad
    /// magic, an unknown version or a header naming another lane or
    /// segment — cross-file or cross-version corruption, not a torn write
    /// — and for a v4 table section that is cut short, fails its CRC or
    /// does not parse: a compactor writes a v4 segment whole (temp file,
    /// fsync, rename), so none of that is a torn write either.
    pub(crate) fn parse(
        bytes: &[u8],
        path: &Path,
        lane: u32,
        seq: u32,
    ) -> Result<Self, TraceError> {
        let corrupt = |offset: usize, reason: String| TraceError::Decode {
            offset,
            reason: format!("{}: {reason}", path.display()),
        };
        if bytes.len() < SEGMENT_HEADER_LEN as usize {
            return Err(corrupt(
                0,
                format!("{} bytes cannot hold a segment header", bytes.len()),
            ));
        }
        if &bytes[..4] != SEGMENT_MAGIC {
            return Err(corrupt(0, "bad magic, not an ESEG segment".into()));
        }
        let version = bytes[4];
        if !known_segment_version(version) {
            return Err(corrupt(4, format!("unsupported segment version {version}")));
        }
        let (file_lane, file_seq) = (read_u32(bytes, 5), read_u32(bytes, 9));
        if (file_lane, file_seq) != (lane, seq) {
            return Err(corrupt(
                5,
                format!(
                    "header says lane {file_lane} segment {file_seq}, file name says \
                     lane {lane} segment {seq}"
                ),
            ));
        }
        if version != SEGMENT_VERSION_V4 {
            return Ok(SegmentHead {
                version,
                table: TemplateTable::default(),
                frames_start: SEGMENT_HEADER_LEN,
            });
        }
        let table_corrupt = |reason: String| {
            corrupt(
                SEGMENT_HEADER_LEN as usize,
                format!("template table: {reason}"),
            )
        };
        let mut at = SEGMENT_HEADER_LEN as usize;
        let len = take_minimal_u64(bytes, &mut at)
            .filter(|&len| len <= MAX_TABLE_BYTES as u64)
            .ok_or_else(|| table_corrupt("no length field".into()))? as usize;
        let end = at + 4 + len;
        let (Some(crc), Some(table)) = (bytes.get(at..at + 4), bytes.get(at + 4..end)) else {
            return Err(table_corrupt(format!(
                "{len} bytes run past the end of the segment"
            )));
        };
        if crc32(table) != read_u32(crc, 0) {
            return Err(table_corrupt("crc mismatch".into()));
        }
        let table =
            TemplateTable::parse(table).map_err(|error| table_corrupt(error.to_string()))?;
        Ok(SegmentHead {
            version,
            table,
            frames_start: end as u64,
        })
    }

    /// [`read_indexed_frame`] for a row of this segment, which must start
    /// past the table.
    ///
    /// # Errors
    ///
    /// [`TraceError::Decode`] for a row inside the table, and as
    /// [`read_indexed_frame`].
    pub(crate) fn frame(
        &self,
        bytes: &[u8],
        lane: u32,
        entry: &WindowEntry,
        verify_crc: bool,
    ) -> Result<Frame, TraceError> {
        if entry.offset < self.frames_start {
            return Err(TraceError::Decode {
                offset: entry.offset as usize,
                reason: format!(
                    "lane {lane} segment {} offset {}: inside the segment's template table, \
                     which ends at {}",
                    entry.segment, entry.offset, self.frames_start
                ),
            });
        }
        read_indexed_frame(self.version, bytes, lane, entry, verify_crc)
    }

    /// What the codec of `frame` is told about the window its block
    /// holds: the window's start — the row's, `start_ns`, since a v3 or v4
    /// frame codes it against the frame before — the event count the
    /// frame's own CRC-protected meta claims, and this segment's table.
    pub(crate) fn context(&self, frame: &Frame, start_ns: u64) -> FrameContext<'_> {
        FrameContext::framed(start_ns, frame.events).with_templates(&self.table)
    }
}

/// Appends a v4 segment's table section to `out`: the length of `table`
/// (the bytes of [`TemplateTable::encode`]) as a varint, their CRC-32 and
/// the bytes.
pub(crate) fn put_table_section(out: &mut Vec<u8>, table: &[u8]) {
    encode_u64(table.len() as u64, out);
    out.extend_from_slice(&crc32(table).to_le_bytes());
    out.extend_from_slice(table);
}

/// Bytes [`put_table_section`] appends for `table`.
pub(crate) fn table_section_len(table: &[u8]) -> u64 {
    (varint_len(table.len() as u64) + 4 + table.len()) as u64
}

/// What a v3 frame is coded against: the window id, end and span
/// (`end - start`) of the frame before it in the segment, all zero in
/// front of the first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FramePrev {
    id: u64,
    end_ns: u64,
    span_ns: u64,
}

impl FramePrev {
    /// The predecessor that the frame of `entry` is to the next one.
    pub(crate) fn after(entry: &WindowEntry) -> Self {
        FramePrev {
            id: entry.window_id,
            end_ns: entry.end_ns,
            span_ns: entry.end_ns.wrapping_sub(entry.start_ns),
        }
    }

    /// The v3 meta varints of `entry`'s frame after this one: id, start
    /// and span as wrapping zigzag deltas, event count, raw length.
    fn deltas(self, entry: &WindowEntry) -> [u64; 5] {
        let span = entry.end_ns.wrapping_sub(entry.start_ns);
        [
            zigzag(entry.window_id.wrapping_sub(self.id) as i64),
            zigzag(entry.start_ns.wrapping_sub(self.end_ns) as i64),
            zigzag(span.wrapping_sub(self.span_ns) as i64),
            u64::from(entry.events),
            u64::from(entry.raw_len),
        ]
    }

    /// The inverse of [`FramePrev::deltas`]: the id, start and end that
    /// the deltas `[id, gap, span]` of the frame after this one stand for.
    fn resolve(self, [id, gap, span]: [u64; 3]) -> [u64; 3] {
        let start_ns = self.end_ns.wrapping_add(unzigzag(gap) as u64);
        let span_ns = self.span_ns.wrapping_add(unzigzag(span) as u64);
        [
            self.id.wrapping_add(unzigzag(id) as u64),
            start_ns,
            start_ns.wrapping_add(span_ns),
        ]
    }
}

/// Bytes of the v3 meta block holding `fields` and the codec byte.
fn meta_len_v3(fields: [u64; 5]) -> u64 {
    (fields.into_iter().map(varint_len).sum::<usize>() + 1) as u64
}

/// Bytes the v3 or v4 frame of `entry` behind `prev` takes around a block
/// of `block_len` bytes: length varint, CRC, meta and block.
pub(crate) fn frame_len(prev: FramePrev, entry: &WindowEntry, block_len: usize) -> u64 {
    let body = meta_len_v3(prev.deltas(entry)) + block_len as u64;
    varint_len(body) as u64 + 4 + body
}

/// Appends the v3 meta block of `fields` ([`FramePrev::deltas`]) and
/// `codec`: four varints, the codec byte, the raw length varint.
fn put_meta_v3(out: &mut Vec<u8>, fields: [u64; 5], codec: u8) {
    for field in &fields[..4] {
        encode_u64(*field, out);
    }
    out.push(codec);
    encode_u64(fields[4], out);
}

/// Parses the v3 meta block that opens `meta` — window deltas, event
/// count, codec byte, raw length — and its length: `None` unless it is
/// five minimal varints around the codec byte, count and length in `u32`.
#[inline]
fn take_meta_v3(meta: &[u8]) -> Option<([u64; 3], u32, u8, u32, usize)> {
    let mut at = 0;
    let mut next = || take_minimal_u64(meta, &mut at);
    let (window, events) = ([next()?, next()?, next()?], next()?);
    let codec_id = *meta.get(at)?;
    at += 1;
    let raw_len = take_minimal_u64(meta, &mut at)?;
    let (events, raw_len) = (u32::try_from(events).ok()?, u32::try_from(raw_len).ok()?);
    Some((window, events, codec_id, raw_len, at))
}

/// Builds the frame (header + body) of `entry` around `block` into `out`
/// (cleared first) and returns the body length. `version` is 1, 3 or 4 —
/// nothing writes v2 — and `prev` the frame this one follows. Of `entry`
/// the window fields, `codec` and `raw_len` are coded.
pub(crate) fn encode_frame(
    version: u8,
    out: &mut Vec<u8>,
    prev: FramePrev,
    entry: &WindowEntry,
    block: &[u8],
) -> u32 {
    out.clear();
    let body_len = if version == SEGMENT_VERSION_V1 {
        debug_assert_eq!((entry.codec, entry.raw_len as usize), (0, block.len()));
        let body_len = (FRAME_META_LEN + block.len()) as u32;
        out.reserve(FRAME_HEADER_LEN as usize + body_len as usize);
        out.extend_from_slice(&body_len.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]); // crc placeholder
        out.extend_from_slice(&entry.window_id.to_le_bytes());
        out.extend_from_slice(&entry.start_ns.to_le_bytes());
        out.extend_from_slice(&entry.end_ns.to_le_bytes());
        out.extend_from_slice(&entry.events.to_le_bytes());
        body_len
    } else {
        debug_assert!(version == SEGMENT_VERSION_V3 || version == SEGMENT_VERSION_V4);
        let fields = prev.deltas(entry);
        let body_len = (meta_len_v3(fields) + block.len() as u64) as u32;
        out.reserve(9 + body_len as usize);
        encode_u64(u64::from(body_len), out);
        out.extend_from_slice(&[0u8; 4]); // crc placeholder
        put_meta_v3(out, fields, entry.codec);
        body_len
    };
    out.extend_from_slice(block);
    let body_start = out.len() - body_len as usize;
    let crc = crc32(&out[body_start..]);
    out[body_start - 4..body_start].copy_from_slice(&crc.to_le_bytes());
    body_len
}

/// One frame as [`read_frame`] found it in a segment buffer.
#[derive(Debug)]
pub(crate) struct Frame {
    /// The frame's codec, known to this build.
    pub codec: CodecId,
    /// Events in the window.
    pub events: u32,
    /// Uncompressed payload length.
    pub raw_len: u32,
    /// Where the body (meta + stored block) lies in the buffer; the next
    /// frame starts at its end.
    pub body: Range<usize>,
    /// Where the stored block lies in the buffer.
    pub block: Range<usize>,
    /// Window id, start and end as the frame codes them: the values
    /// themselves (v1, v2), or the zigzag deltas of id, start and span
    /// against the frame before (`relative`, v3).
    window: [u64; 3],
    relative: bool,
}

impl Frame {
    /// The index row of this frame, found at `offset` of segment `seq`
    /// behind the frame `prev` (an index-driven reader has it already).
    pub(crate) fn entry(&self, seq: u32, offset: u64, prev: FramePrev) -> WindowEntry {
        let [window_id, start_ns, end_ns] = if self.relative {
            prev.resolve(self.window)
        } else {
            self.window
        };
        WindowEntry {
            window_id,
            start_ns,
            end_ns,
            events: self.events,
            segment: seq,
            offset,
            len: self.body.len() as u32,
            codec: self.codec.as_u8(),
            raw_len: self.raw_len,
        }
    }
}

/// What [`read_frame`] found at an offset.
#[derive(Debug)]
pub(crate) enum FrameRead {
    /// A complete frame.
    Frame(Frame),
    /// No intact frame starts here (bytes run out, a length no writer
    /// emits, CRC mismatch, unparseable meta), and why. To a scanner the
    /// torn tail; to a reader promised a frame here, corruption.
    Torn(&'static str),
}

/// The one frame parser: reads the frame of a `version` segment that
/// starts `at` bytes into `bytes`, the segment file's contents up to
/// whatever bound the caller trusts. `verify_crc` is off only for a
/// frame this very buffer has already passed. Nothing is allocated and
/// nothing read past `bytes`; a length is bounds-checked before use.
///
/// # Errors
///
/// [`TraceError::Decode`] for a CRC-valid frame naming a codec id this
/// build does not know (a future build's; replaying around it would
/// silently lose data), or an identity frame whose stored block is not
/// as long as its raw length: neither is a torn write.
#[inline]
pub(crate) fn read_frame(
    version: u8,
    bytes: &[u8],
    at: u64,
    verify_crc: bool,
) -> Result<FrameRead, TraceError> {
    let Some(mut pos) = usize::try_from(at).ok().filter(|at| *at <= bytes.len()) else {
        return Ok(FrameRead::Torn("frame starts past the end of the segment"));
    };
    let relative = version >= SEGMENT_VERSION_V3;
    let body_len = if relative {
        // A writer's length takes at most five bytes (2^30 needs five); a
        // longer field is no length at all, not one out of range.
        let start = pos;
        take_minimal_u64(bytes, &mut pos).filter(|_| pos - start <= 5)
    } else {
        pos += 4;
        bytes
            .get(pos - 4..pos)
            .map(|field| u64::from(read_u32(field, 0)))
    };
    let Some(body_len) = body_len else {
        return Ok(FrameRead::Torn("no frame length field"));
    };
    if body_len > u64::from(MAX_FRAME_BODY) || (body_len as usize) < frame_meta_len(version) {
        return Ok(FrameRead::Torn("frame length out of range"));
    }
    let body = pos + 4..pos + 4 + body_len as usize;
    if body.end > bytes.len() {
        return Ok(FrameRead::Torn("frame runs past the end of the segment"));
    }
    let meta = &bytes[body.clone()];
    if verify_crc && crc32(meta) != read_u32(bytes, pos) {
        return Ok(FrameRead::Torn("crc mismatch"));
    }
    let (window, events, codec_id, raw_len, meta_len) = if relative {
        let Some(fields) = take_meta_v3(meta) else {
            return Ok(FrameRead::Torn("malformed frame meta"));
        };
        fields
    } else {
        let window = [read_u64(meta, 0), read_u64(meta, 8), read_u64(meta, 16)];
        let (codec_id, raw_len) = if version == SEGMENT_VERSION_V2 {
            (meta[28], read_u32(meta, 29))
        } else {
            (
                CodecId::Identity.as_u8(),
                (meta.len() - FRAME_META_LEN) as u32,
            )
        };
        (
            window,
            read_u32(meta, 24),
            codec_id,
            raw_len,
            frame_meta_len(version),
        )
    };
    let Some(codec) = CodecId::from_u8(codec_id) else {
        return Err(TraceError::Decode {
            offset: body.start,
            reason: format!("frame at offset {at} uses unknown codec id {codec_id}"),
        });
    };
    let block = body.start + meta_len..body.end;
    if codec == CodecId::Identity && block.len() != raw_len as usize {
        return Err(TraceError::Decode {
            offset: body.start,
            reason: format!(
                "identity frame at offset {at} stores {} bytes but claims a raw length of {raw_len}",
                block.len()
            ),
        });
    }
    Ok(FrameRead::Frame(Frame {
        codec,
        events,
        raw_len,
        body,
        block,
        window,
        relative,
    }))
}

/// [`read_frame`] for a reader that holds the frame's index row: the
/// frame must be there — at `entry.offset` of `bytes`, the segment —
/// intact and as long as the row says. The window fields are the row's;
/// codec, raw length and block come from the CRC-protected bytes of the
/// file, never from the sidecar.
///
/// # Errors
///
/// [`TraceError::Decode`] on any disagreement, and as [`read_frame`].
#[inline]
pub(crate) fn read_indexed_frame(
    version: u8,
    bytes: &[u8],
    lane: u32,
    entry: &WindowEntry,
    verify_crc: bool,
) -> Result<Frame, TraceError> {
    let reason = match read_frame(version, bytes, entry.offset, verify_crc)? {
        FrameRead::Frame(frame) if frame.body.len() == entry.len as usize => return Ok(frame),
        FrameRead::Frame(frame) => format!(
            "index says frame body is {} bytes, file says {}",
            entry.len,
            frame.body.len()
        ),
        FrameRead::Torn(reason) => reason.to_owned(),
    };
    Err(TraceError::Decode {
        offset: entry.offset as usize,
        reason: format!(
            "lane {lane} segment {} offset {}: {reason}",
            entry.segment, entry.offset
        ),
    })
}

/// Bytes of frame header + meta, and of stored blocks, across `index`; a
/// v4 segment's table section — between its header and its first frame
/// — counts with the blocks whose rows it holds. A v3 frame's meta is as
/// long as its deltas against the row before it in its segment, so this
/// walks the rows in order.
pub(crate) fn envelope_and_stored_bytes(index: &LaneIndex) -> (u64, u64) {
    let (mut envelope, mut stored) = (0u64, 0u64);
    let mut segment = None;
    let (mut version, mut prev) = (SEGMENT_VERSION_V1, FramePrev::default());
    for entry in &index.windows {
        if segment != Some(entry.segment) {
            segment = Some(entry.segment);
            version = index.segment_version(entry.segment);
            prev = FramePrev::default();
            if version == SEGMENT_VERSION_V4 {
                stored += entry.offset.saturating_sub(SEGMENT_HEADER_LEN);
            }
        }
        let meta_len = if version >= SEGMENT_VERSION_V3 {
            meta_len_v3(prev.deltas(entry))
        } else {
            frame_meta_len(version) as u64
        };
        prev = FramePrev::after(entry);
        envelope += frame_header_len(version, entry.len) + meta_len;
        stored += u64::from(entry.len).saturating_sub(meta_len);
    }
    (envelope, stored)
}

pub(crate) fn read_u32(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"))
}

fn read_u64(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"))
}

/// Magic bytes opening every binary sidecar.
const SIDECAR_MAGIC: &[u8; 4] = b"EIDX";
/// What every sidecar schema opens with: magic, schema, lane (`u32`
/// each).
const SIDECAR_FIXED_LEN: usize = 12;
/// Schema 3's header: the fixed part, then the segment count (`u32`) and
/// the window count (`u64`).
const SIDECAR_V3_HEADER_LEN: usize = 24;
/// One [`SegmentMeta`] record: seq, committed bytes, version.
const SEGMENT_RECORD_LEN: usize = 13;
/// One schema-3 window record, fields in struct order.
const WINDOW_RECORD_V3_LEN: usize = 49;
/// The shortest schema-4 window row: eight one-byte varints and the
/// codec byte.
const WINDOW_ROW_MIN_LEN: usize = 9;

/// What a schema-4 window row is coded against: the row before it, all
/// zero in front of the first.
#[derive(Debug, Clone, Copy, Default)]
struct RowPrev {
    /// The window fields, by the `prev` rule of a v3 frame.
    frame: FramePrev,
    segment: u32,
    /// `offset + len` of the row before: where its frame body ends, one
    /// frame header short of where a frame right behind it starts.
    body_end: u64,
}

impl RowPrev {
    /// The predecessor that `entry`'s row is to the next one.
    fn after(entry: &WindowEntry) -> Self {
        RowPrev {
            frame: FramePrev::after(entry),
            segment: entry.segment,
            body_end: entry.offset.wrapping_add(u64::from(entry.len)),
        }
    }

    /// What the offset of a row in `segment` is coded against: the end of
    /// the row before's body in the same segment, 0 in another.
    fn offset_base(self, segment: u32) -> u64 {
        if segment == self.segment {
            self.body_end
        } else {
            0
        }
    }

    /// The window entry that `row`, the row after this one, stands for.
    fn resolve(self, row: Row) -> WindowEntry {
        let [window_id, start_ns, end_ns] = self.frame.resolve(row.window);
        let segment = self.segment.wrapping_add(row.segment);
        WindowEntry {
            window_id,
            start_ns,
            end_ns,
            events: row.events,
            segment,
            offset: row.offset.wrapping_add(self.offset_base(segment)),
            len: row.len,
            codec: row.codec,
            raw_len: row.raw_len,
        }
    }
}

/// One schema-4 window row as stored: the fields of a v3 frame meta, then
/// the segment and offset deltas and the body length.
struct Row {
    window: [u64; 3],
    events: u32,
    codec: u8,
    raw_len: u32,
    segment: u32,
    offset: u64,
    len: u32,
}

/// Reads the schema-4 row at `*at`, advancing it: `None` unless it is
/// minimal varints around the codec byte with `events`, raw length,
/// segment delta and `len` in `u32`.
#[inline]
fn take_row(rows: &[u8], at: &mut usize) -> Option<Row> {
    // Most rows of a recorded lane: nine one-byte fields.
    if let Some(&[id, gap, span, events, codec, raw_len, segment, offset, len]) =
        rows.get(*at..*at + WINDOW_ROW_MIN_LEN)
    {
        if (id | gap | span | events | raw_len | segment | offset | len) < 0x80 {
            *at += WINDOW_ROW_MIN_LEN;
            return Some(Row {
                window: [id, gap, span].map(u64::from),
                events: events.into(),
                codec,
                raw_len: raw_len.into(),
                segment: segment.into(),
                offset: offset.into(),
                len: len.into(),
            });
        }
    }
    take_long_row(rows, at)
}

/// [`take_row`] for a row with a field of more than one byte. Out of the
/// decode loop: kept inline, its varint loops cost the common row about
/// half its speed.
#[cold]
fn take_long_row(rows: &[u8], at: &mut usize) -> Option<Row> {
    let (window, events, codec, raw_len, meta_len) = take_meta_v3(rows.get(*at..)?)?;
    *at += meta_len;
    Some(Row {
        window,
        events,
        codec,
        raw_len,
        segment: u32::try_from(take_minimal_u64(rows, at)?).ok()?,
        offset: take_minimal_u64(rows, at)?,
        len: u32::try_from(take_minimal_u64(rows, at)?).ok()?,
    })
}

/// Serialises a lane index as the schema-4 binary sidecar of
/// `docs/FORMAT.md` §4: header, fixed-width segment records, one varint
/// row per window coded against the row before it, and a trailing CRC-32
/// over everything before it.
pub(crate) fn encode_sidecar(index: &LaneIndex) -> Vec<u8> {
    // Two count varints of at most 10 bytes; a recorded lane's rows take
    // 9 to 10 bytes, and a few more.
    let mut out = Vec::with_capacity(
        SIDECAR_FIXED_LEN
            + 20
            + SEGMENT_RECORD_LEN * index.segments.len()
            + 12 * index.windows.len()
            + 4,
    );
    out.extend_from_slice(SIDECAR_MAGIC);
    out.extend_from_slice(&SIDECAR_SCHEMA.to_le_bytes());
    out.extend_from_slice(&index.lane.to_le_bytes());
    encode_u64(index.segments.len() as u64, &mut out);
    encode_u64(index.windows.len() as u64, &mut out);
    for meta in &index.segments {
        out.extend_from_slice(&meta.seq.to_le_bytes());
        out.extend_from_slice(&meta.committed_bytes.to_le_bytes());
        out.push(meta.version);
    }
    encode_rows(&index.windows, &mut out);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parses a binary sidecar, accepting only a file that is intact (magic,
/// CRC), of schema 4 or 3, and exactly as long as its own counts and rows
/// say. Every count is checked against the bytes left before anything is
/// allocated, so no header can make the decoder reserve more than the
/// file it was handed.
pub(crate) fn decode_sidecar(bytes: &[u8]) -> Result<LaneIndex, FallbackReason> {
    if bytes.len() < SIDECAR_FIXED_LEN + 4 || &bytes[..4] != SIDECAR_MAGIC {
        return Err(FallbackReason::Unreadable);
    }
    let (sealed, stored_crc) = bytes.split_at(bytes.len() - 4);
    if crc32(sealed) != read_u32(stored_crc, 0) {
        return Err(FallbackReason::BadChecksum);
    }
    let lane = read_u32(sealed, 8);
    let index = match read_u32(sealed, 4) {
        SIDECAR_SCHEMA => decode_schema_4(sealed, lane),
        SIDECAR_SCHEMA_V3 => decode_fixed_width(sealed, lane),
        _ => return Err(FallbackReason::UnknownSchema),
    };
    index.ok_or(FallbackReason::Unreadable)
}

/// The segment and window tables of a schema-4 sidecar, sealed bytes
/// only; `None` unless `W` rows fill exactly the bytes after the segment
/// records ([`decode_rows`]).
fn decode_schema_4(sealed: &[u8], lane: u32) -> Option<LaneIndex> {
    let mut at = SIDECAR_FIXED_LEN;
    let segment_count = take_minimal_u64(sealed, &mut at)?;
    let window_count = take_minimal_u64(sealed, &mut at)?;
    let records = usize::try_from(segment_count)
        .ok()?
        .checked_mul(SEGMENT_RECORD_LEN)?;
    let rest = &sealed[at..];
    let (records, rows) = (rest.get(..records)?, rest.get(records..)?);
    Some(LaneIndex {
        schema: SIDECAR_SCHEMA,
        lane,
        segments: segment_records(records),
        windows: decode_rows(rows, window_count)?,
    })
}

/// Appends the schema-4 rows of `windows` to `out`, the first coded
/// against zeros: the rows of a sidecar, and of one lane in a pack index.
pub(crate) fn encode_rows(windows: &[WindowEntry], out: &mut Vec<u8>) {
    let mut prev = RowPrev::default();
    for entry in windows {
        put_meta_v3(out, prev.frame.deltas(entry), entry.codec);
        let segment = entry.segment.wrapping_sub(prev.segment);
        let offset = entry.offset.wrapping_sub(prev.offset_base(entry.segment));
        for field in [u64::from(segment), offset, u64::from(entry.len)] {
            encode_u64(field, out);
        }
        prev = RowPrev::after(entry);
    }
}

/// The inverse of [`encode_rows`]: `None` unless `count` rows of minimal
/// varints fill exactly `rows`. The count is held to one row per
/// [`WINDOW_ROW_MIN_LEN`] bytes before anything is reserved.
pub(crate) fn decode_rows(rows: &[u8], count: u64) -> Option<Vec<WindowEntry>> {
    if count > (rows.len() / WINDOW_ROW_MIN_LEN) as u64 {
        return None;
    }
    let mut windows = Vec::with_capacity(count as usize);
    let (mut at, mut prev) = (0, RowPrev::default());
    for _ in 0..count {
        let entry = prev.resolve(take_row(rows, &mut at)?);
        prev = RowPrev::after(&entry);
        windows.push(entry);
    }
    (at == rows.len()).then_some(windows)
}

/// The tables of a schema-3 sidecar (read only): `None` unless the file is
/// exactly `28 + 13·S + 49·W` bytes, computed with overflow checks.
fn decode_fixed_width(sealed: &[u8], lane: u32) -> Option<LaneIndex> {
    if sealed.len() < SIDECAR_V3_HEADER_LEN {
        return None;
    }
    let segments = u64::from(read_u32(sealed, 12));
    let segments_end = SIDECAR_V3_HEADER_LEN as u64 + SEGMENT_RECORD_LEN as u64 * segments;
    let expected_len = read_u64(sealed, 16)
        .checked_mul(WINDOW_RECORD_V3_LEN as u64)
        .and_then(|window_bytes| window_bytes.checked_add(segments_end));
    if expected_len != Some(sealed.len() as u64) {
        return None;
    }
    // `segments_end` is within the file now, so it fits a `usize`.
    let (records, window_records) =
        sealed[SIDECAR_V3_HEADER_LEN..].split_at(segments_end as usize - SIDECAR_V3_HEADER_LEN);
    Some(LaneIndex {
        schema: SIDECAR_SCHEMA,
        lane,
        segments: segment_records(records),
        windows: window_records
            .chunks_exact(WINDOW_RECORD_V3_LEN)
            .map(|record| WindowEntry {
                window_id: read_u64(record, 0),
                start_ns: read_u64(record, 8),
                end_ns: read_u64(record, 16),
                events: read_u32(record, 24),
                segment: read_u32(record, 28),
                offset: read_u64(record, 32),
                len: read_u32(record, 40),
                codec: record[44],
                raw_len: read_u32(record, 45),
            })
            .collect(),
    })
}

/// The 13-byte segment records both schemas share.
fn segment_records(records: &[u8]) -> Vec<SegmentMeta> {
    records
        .chunks_exact(SEGMENT_RECORD_LEN)
        .map(|record| SegmentMeta {
            seq: read_u32(record, 0),
            committed_bytes: read_u64(record, 4),
            version: record[12],
        })
        .collect()
}

/// Atomically persists a lane sidecar (temp file + rename), shared by the
/// writer's `sync`/`close` and the compactor. With `remove_legacy` — the
/// caller's listing saw the lane's `.idx.json` — that file is removed
/// once the `.idx` is in place, so a lane converges to one sidecar.
pub(crate) fn write_sidecar(
    dir: &Path,
    index: &LaneIndex,
    remove_legacy: bool,
) -> Result<(), TraceError> {
    let bytes = encode_sidecar(index);
    let name = sidecar_file_name(index.lane);
    commit_file(dir, &name, Durability::Cache, |file| file.write_all(&bytes))?;
    if remove_legacy {
        // Already gone is fine: a cache is always safe to delete by hand.
        remove_if_present(&dir.join(legacy_sidecar_file_name(index.lane)))?;
    }
    Ok(())
}

/// How durable [`commit_file`] makes a file, and the temp name it is
/// written under (`docs/FORMAT.md` §1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Durability {
    /// A cache a reader checks and may decline — a sidecar, a pack index:
    /// not synced, written as `{name}.tmp`.
    Cache,
    /// Synced before its rename — a merge journal, a merged segment —
    /// and written as `{name}.compact.tmp`.
    Synced,
    /// [`Durability::Synced`], and the directory synced after the rename:
    /// a pack, whose rename commits it and must reach the disk before any
    /// deletion it allows does.
    Committed,
}

/// Puts the file `name` of `dir` in place whole: a temp file that `fill`
/// writes, synced as `durability` says, renamed over `name` — the one way
/// the store writes a file it does not append to.
///
/// # Errors
///
/// [`TraceError::Io`] on filesystem failures; the file `name` is then as
/// it was, and the temp file may be left behind (recovery sweeps it).
pub(crate) fn commit_file(
    dir: &Path,
    name: &str,
    durability: Durability,
    fill: impl FnOnce(&mut File) -> std::io::Result<()>,
) -> Result<(), TraceError> {
    let suffix = match durability {
        Durability::Cache => "tmp",
        Durability::Synced | Durability::Committed => "compact.tmp",
    };
    let tmp = dir.join(format!("{name}.{suffix}"));
    let mut file = File::create(&tmp)?;
    fill(&mut file)?;
    if durability != Durability::Cache {
        file.sync_all()?;
    }
    drop(file);
    std::fs::rename(&tmp, dir.join(name))?;
    if durability == Durability::Committed {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Removes `path` unless it is already gone.
pub(crate) fn remove_if_present(path: &Path) -> Result<(), TraceError> {
    match std::fs::remove_file(path) {
        Err(error) if error.kind() != std::io::ErrorKind::NotFound => Err(error.into()),
        _ => Ok(()),
    }
}

/// What the recovery scanner found in one segment file.
#[derive(Debug)]
pub(crate) struct ScannedSegment {
    /// Complete, CRC-valid frames, in file order.
    pub entries: Vec<WindowEntry>,
    /// Byte length of the intact prefix (header + complete frames).
    pub committed_bytes: u64,
    /// The torn tail, when the file does not end on a frame boundary.
    pub torn: Option<TornTail>,
    /// Summary of the intact prefix, for the rebuilt sidecar.
    pub meta: SegmentMeta,
}

/// Scans the bytes of one segment file, validating the header and every
/// frame.
///
/// Returns the intact prefix (every complete, CRC-valid frame) and, when
/// the file ends mid-frame or with a corrupt frame, the torn tail to
/// truncate. A file too short to hold the segment header is treated as a
/// torn tail at offset zero (the process died between `create` and the
/// header write).
///
/// # Errors
///
/// Returns [`TraceError::Decode`] when the header is present but wrong (bad
/// magic, unknown version, or lane/sequence mismatch), or when a
/// CRC-valid v2 or v3 frame names a codec this build does not know — all of
/// that is cross-file or cross-version corruption, not a torn write, and
/// recovery must not silently discard it.
pub(crate) fn scan_segment(
    bytes: &[u8],
    path: &std::path::Path,
    lane: u32,
    seq: u32,
) -> Result<ScannedSegment, TraceError> {
    let file_len = bytes.len() as u64;
    let torn_at = |offset: u64| TornTail {
        lane,
        segment: seq,
        offset,
        dropped_bytes: file_len - offset,
    };
    if file_len < SEGMENT_HEADER_LEN {
        return Ok(ScannedSegment {
            entries: Vec::new(),
            committed_bytes: 0,
            torn: Some(torn_at(0)),
            meta: SegmentMeta {
                seq,
                committed_bytes: 0,
                version: SEGMENT_VERSION_V1,
            },
        });
    }
    let head = SegmentHead::parse(bytes, path, lane, seq)?;
    let version = head.version;
    let mut entries = Vec::new();
    let mut offset = head.frames_start;
    let mut prev = FramePrev::default();
    let mut torn = None;
    while offset < file_len {
        match read_frame(version, bytes, offset, true)? {
            FrameRead::Frame(frame) => {
                let entry = frame.entry(seq, offset, prev);
                prev = FramePrev::after(&entry);
                offset = frame.body.end as u64;
                entries.push(entry);
            }
            FrameRead::Torn(_) => {
                torn = Some(torn_at(offset));
                break;
            }
        }
    }
    let committed_bytes = torn.as_ref().map_or(file_len, |tail| tail.offset);
    Ok(ScannedSegment {
        entries,
        committed_bytes,
        torn,
        meta: SegmentMeta {
            seq,
            committed_bytes,
            version,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn every_format_name_classifies_back_to_its_builder() {
        // Lanes and sequence numbers narrower than, at and wider than
        // their zero padding (FORMAT.md §1).
        for lane in [0, 7, 1234, 12345, 123_456, u32::MAX] {
            for seq in [0, 17, 999_999, 1_000_000, u32::MAX] {
                let segment = segment_file_name(lane, seq);
                assert_eq!(
                    classify_file_name(&segment),
                    Some((lane, StoreFile::Segment(seq))),
                    "{segment}"
                );
                assert_eq!(
                    classify_file_name(&format!("{segment}.compact.tmp")),
                    Some((lane, StoreFile::Temp))
                );
            }
            let (sidecar, journal) = (sidecar_file_name(lane), manifest_file_name(lane));
            let legacy = legacy_sidecar_file_name(lane);
            assert_eq!(
                classify_file_name(&sidecar),
                Some((lane, StoreFile::Sidecar))
            );
            assert_eq!(
                classify_file_name(&legacy),
                Some((lane, StoreFile::LegacySidecar))
            );
            assert_eq!(
                classify_file_name(&journal),
                Some((lane, StoreFile::Journal))
            );
            // A crash inside either build's sidecar write leaves a temp
            // this build must still sweep.
            for temp in [format!("{sidecar}.tmp"), format!("{legacy}.tmp")] {
                assert_eq!(
                    classify_file_name(&temp),
                    Some((lane, StoreFile::Temp)),
                    "{temp}"
                );
            }
            assert_eq!(
                classify_file_name(&format!("{journal}.compact.tmp")),
                Some((lane, StoreFile::Temp))
            );
        }
        assert_eq!(segment_file_name(3, 17), "lane0003-000017.seg");
        assert_eq!(sidecar_file_name(3), "lane0003.idx");
        assert_eq!(legacy_sidecar_file_name(3), "lane0003.idx.json");
        assert_eq!(manifest_file_name(3), "lane0003.compact.json");
    }

    #[test]
    fn near_miss_names_are_not_ours() {
        for name in [
            "",
            "lane",
            "other.seg",
            "lane0003.seg",
            "lane0003-.seg",
            "lane-000017.seg",
            "lane003-000017.seg",   // lane padded to 3
            "lane0003-00017.seg",   // sequence padded to 5
            "lane00003-000017.seg", // wider than the padding, leading zero
            "lane0003-0000017.seg", // likewise
            "lane+003-000017.seg",  // `u32::from_str` would take the sign
            "lane0003-+00017.seg",
            "lane0003-000017.seg ",
            "Lane0003-000017.seg",
            "xlane0003-000017.seg",
            "lane0003-000017.segment",
            "lane0003-000017.seg.tmp",
            "lane0003-000017.seg.compact",
            "lane0003-000017.seg.compact.tmp.compact.tmp",
            "lane4294967296-000000.seg", // lane past u32
            "lane0003-4294967296.seg",
            "lane0003.idx.bin",
            "lane0003.idx.json.bak",
            "lane0003.idx.compact.tmp", // the sidecar's temp is `.tmp`
            "lane0003.idx.json.compact.tmp",
            "lane0003.idx.tmp.tmp",
            "lane03.idx",
            "lane0003.compact.json.tmp", // the journal's is `.compact.tmp`
            "lane0003.idx.json.tmp.tmp",
            "lane03.idx.json",
            "lane0003.compact",
            "lane0003x.compact.json",
            "lane0003.compact.tmp",
            ".compact.tmp",
        ] {
            assert_eq!(classify_file_name(name), None, "{name:?}");
        }
    }

    #[test]
    fn one_listing_sorts_a_directory_by_lane() {
        let dir =
            std::env::temp_dir().join(format!("endurance-listing-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for name in [
            "lane1234-000002.seg",
            "lane1234-000000.seg",
            "lane1234-000010.seg",
            "lane1234.idx",
            "lane1234.idx.tmp",
            "lane1234.idx.json",
            "lane1234.idx.json.tmp",
            "lane12345-000001.seg",
            "lane12345.compact.json",
            "lane12345-000001.seg.compact.tmp",
            "lane0007.compact.json.compact.tmp",
            "lane0009.idx",
            "notes.txt",
        ] {
            std::fs::write(dir.join(name), b"").unwrap();
        }
        let lanes = list_store_dir(&dir, None).unwrap().lanes;
        assert_eq!(
            lanes.keys().copied().collect::<Vec<_>>(),
            [7, 9, 1234, 12345]
        );
        assert_eq!(lanes[&1234].seqs, [0, 2, 10]);
        assert!(!lanes[&1234].journal);
        assert!(lanes[&1234].legacy_sidecar && !lanes[&9].legacy_sidecar);
        let mut temps = lanes[&1234].temps.clone();
        temps.sort_unstable();
        assert_eq!(temps, ["lane1234.idx.json.tmp", "lane1234.idx.tmp"]);
        assert_eq!(lanes[&12345].seqs, [1]);
        assert!(lanes[&12345].journal);
        assert_eq!(lanes[&12345].temps, ["lane12345-000001.seg.compact.tmp"]);
        assert!(lanes[&7].seqs.is_empty());
        assert_eq!(lanes[&7].temps, ["lane0007.compact.json.compact.tmp"]);

        // One lane's listing holds that lane's files and no neighbour's.
        let only = list_store_dir(&dir, Some(1234)).unwrap().lanes;
        assert_eq!(only.keys().copied().collect::<Vec<_>>(), [1234]);
        assert_eq!(only[&1234].seqs, lanes[&1234].seqs);
        assert!(list_store_dir(&dir, Some(1)).unwrap().lanes.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sample_index() -> LaneIndex {
        let mut index = LaneIndex::new(3);
        for (seq, version) in [(0, SEGMENT_VERSION_V1), (4, SEGMENT_VERSION_V2)] {
            index.segments.push(SegmentMeta {
                seq,
                committed_bytes: 1000 + u64::from(seq),
                version,
            });
        }
        for id in 0..5u64 {
            index.windows.push(WindowEntry {
                window_id: id,
                start_ns: id * 10,
                end_ns: id * 10 + 9,
                events: id as u32 + 1,
                segment: if id < 2 { 0 } else { 4 },
                offset: 13 + id * 100,
                len: 60,
                codec: (id % 3) as u8,
                raw_len: 90,
            });
        }
        index
    }

    fn hex(text: &str) -> Vec<u8> {
        let digits: Vec<u8> = text.bytes().filter(u8::is_ascii_hexdigit).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    /// `body` behind the magic, schema 4 and lane 0, sealed with its CRC.
    fn sealed_v4(body: &[u8]) -> Vec<u8> {
        let mut bytes = b"EIDX".to_vec();
        bytes.extend_from_slice(&SIDECAR_SCHEMA.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(body);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// The schema-3 encoder the builds before schema 4 ran: header,
    /// fixed-width little-endian records, CRC-32.
    fn encode_sidecar_v3(index: &LaneIndex) -> Vec<u8> {
        let mut out = b"EIDX".to_vec();
        out.extend_from_slice(&SIDECAR_SCHEMA_V3.to_le_bytes());
        out.extend_from_slice(&index.lane.to_le_bytes());
        out.extend_from_slice(&(index.segments.len() as u32).to_le_bytes());
        out.extend_from_slice(&(index.windows.len() as u64).to_le_bytes());
        for meta in &index.segments {
            out.extend_from_slice(&meta.seq.to_le_bytes());
            out.extend_from_slice(&meta.committed_bytes.to_le_bytes());
            out.push(meta.version);
        }
        for entry in &index.windows {
            out.extend_from_slice(&entry.window_id.to_le_bytes());
            out.extend_from_slice(&entry.start_ns.to_le_bytes());
            out.extend_from_slice(&entry.end_ns.to_le_bytes());
            out.extend_from_slice(&entry.events.to_le_bytes());
            out.extend_from_slice(&entry.segment.to_le_bytes());
            out.extend_from_slice(&entry.offset.to_le_bytes());
            out.extend_from_slice(&entry.len.to_le_bytes());
            out.push(entry.codec);
            out.extend_from_slice(&entry.raw_len.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn sidecar_bytes_follow_the_documented_layout() {
        let index = sample_index();
        let bytes = encode_sidecar(&index);
        // FORMAT.md §4, schema 4: each row is the v3 frame meta of its
        // window against the row before (zeros in front of the first),
        // then the segment delta, the offset against the row before's
        // body end in the same segment (0 in another) and the length.
        let expected = hex("
            45494458 04000000 03000000 02 05
            00000000 e803000000000000 01
            04000000 ec03000000000000 02
            00 00 12 01 00 5a   00 0d   3c
            02 02 00 02 01 5a   00 28   3c
            02 02 00 03 02 5a   04 d501 3c
            02 02 00 04 00 5a   00 28   3c
            02 02 00 05 01 5a   00 28   3c");
        assert_eq!(bytes[..bytes.len() - 4], expected);
        let sealed = bytes.len() - 4;
        assert_eq!(read_u32(&bytes, sealed), crc32(&bytes[..sealed]));
        assert_eq!(decode_sidecar(&bytes), Ok(index));
    }

    #[test]
    fn a_recorded_lane_costs_nine_bytes_a_row_and_three_a_gap() {
        // 40 ms windows back to back, as v3 frames of bodies under 128
        // bytes, one in seven not recorded, across two segments: nine
        // one-byte fields a row, and three more behind each gap (a 40 ms
        // gap is a four-byte varint).
        let mut index = LaneIndex::new(0);
        let (mut offset, mut prev) = (SEGMENT_HEADER_LEN, FramePrev::default());
        for id in (0..1_000u64).filter(|id| id % 7 != 3) {
            let segment = u32::from(id >= 500);
            if id == 501 {
                (offset, prev) = (SEGMENT_HEADER_LEN, FramePrev::default());
            }
            let mut entry = window(
                id,
                id * 40_000_000,
                (id + 1) * 40_000_000,
                48,
                CodecId::Packed,
            );
            (entry.segment, entry.offset, entry.raw_len) = (segment, offset, 100 + id as u32 % 9);
            let block_len = 40 + id as usize % 20;
            let body = meta_len_v3(prev.deltas(&entry)) + block_len as u64;
            entry.len = body as u32;
            offset += frame_len(prev, &entry, block_len);
            prev = FramePrev::after(&entry);
            index.windows.push(entry);
        }
        let bytes = encode_sidecar(&index);
        // 12 fixed bytes, S in one byte, W = 857 in two; the CRC.
        let rows = bytes.len() - 15 - 4;
        let gaps = index
            .windows
            .iter()
            .filter(|w| w.window_id % 7 == 4)
            .count();
        // The first row's span is coded against 0: three more bytes.
        assert_eq!(rows, 9 * index.windows.len() + 3 * (gaps + 1));
        assert_eq!((index.windows.len(), rows), (857, 8145), "9.50 B per row");
        assert_eq!(decode_sidecar(&bytes), Ok(index));
    }

    #[test]
    fn damaged_sidecars_are_declined_with_a_reason() {
        let bytes = encode_sidecar(&sample_index());
        // A flipped byte is the magic's or the checksum's to catch
        // (truncations: `no_damage_to_a_sidecar_survives_reopen`).
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x40;
            let reason = decode_sidecar(&flipped).unwrap_err();
            let expected = if at < 4 {
                FallbackReason::Unreadable
            } else {
                FallbackReason::BadChecksum
            };
            assert_eq!(reason, expected, "flip at {at}");
        }
        let reseal = |mut bytes: Vec<u8>| {
            let sealed = bytes.len() - 4;
            let crc = crc32(&bytes[..sealed]);
            bytes[sealed..].copy_from_slice(&crc.to_le_bytes());
            bytes
        };
        // Intact files this build must still not take at their word.
        for schema in [0, 1, 2, 5, u32::MAX] {
            let mut future = bytes.clone();
            future[4..8].copy_from_slice(&schema.to_le_bytes());
            assert_eq!(
                decode_sidecar(&reseal(future)),
                Err(FallbackReason::UnknownSchema)
            );
        }
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0; 9]);
        assert_eq!(
            decode_sidecar(&reseal(padded)),
            Err(FallbackReason::Unreadable)
        );
    }

    #[test]
    fn schema_3_sidecars_are_still_read() {
        let index = sample_index();
        let bytes = encode_sidecar_v3(&index);
        assert_eq!(bytes.len(), 28 + 13 * 2 + 49 * 5);
        assert_eq!(decode_sidecar(&bytes), Ok(index));
        // Exactly `28 + 13·S + 49·W` bytes, or nothing.
        for len in [bytes.len() - 1, bytes.len() + 1] {
            let mut resized = bytes[..bytes.len() - 4].to_vec();
            resized.resize(len - 4, 0);
            let crc = crc32(&resized);
            resized.extend_from_slice(&crc.to_le_bytes());
            assert_eq!(decode_sidecar(&resized), Err(FallbackReason::Unreadable));
        }
    }

    #[test]
    fn hostile_counts_are_rejected_before_anything_is_allocated() {
        // A 40-byte schema-3 file claiming 2^60 windows, `u64::MAX`
        // windows, and a count whose size in bytes only overflows once the
        // segment records are added: each must be declined on arithmetic
        // alone — reserving room for any of them would abort the process.
        for windows in [1u64 << 60, u64::MAX, (u64::MAX - 36) / 49] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(b"EIDX");
            bytes.extend_from_slice(&SIDECAR_SCHEMA_V3.to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&u32::MAX.to_le_bytes());
            bytes.extend_from_slice(&windows.to_le_bytes());
            bytes.extend_from_slice(&[0; 12]);
            let crc = crc32(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
            assert_eq!(bytes.len(), 40);
            assert_eq!(decode_sidecar(&bytes), Err(FallbackReason::Unreadable));
        }
        // Schema 4: `S` records must fit the bytes after the counts, and
        // `W` rows of at least 9 bytes the bytes after the records.
        let varint = |value: u64| {
            let mut out = Vec::new();
            encode_u64(value, &mut out);
            out
        };
        let zero_rows = |rows: usize| vec![0u8; 9 * rows];
        for (segments, windows, rows) in [
            (0, 3, 2),
            (0, 1 << 60, 2),
            (0, u64::MAX, 2),
            (u64::MAX, 0, 0),
            (1 << 40, 1, 1),
            (u64::MAX / 13 + 1, 0, 4),
            (2, 0, 1),
        ] {
            let mut body = varint(segments);
            body.extend(varint(windows));
            body.extend(zero_rows(rows));
            assert_eq!(
                decode_sidecar(&sealed_v4(&body)),
                Err(FallbackReason::Unreadable),
                "S {segments}, W {windows}, {rows} row(s) of bytes"
            );
        }
    }

    #[test]
    fn crafted_schema_4_rows_are_held_to_the_layout() {
        // The all-zero row is the shortest there is; each case below
        // breaks one rule of FORMAT.md §4 under a valid CRC.
        let valid = sealed_v4(&[0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(
            decode_sidecar(&valid).map(|index| index.windows.len()),
            Ok(1)
        );
        let u32_max = [0xff, 0xff, 0xff, 0xff, 0x0f];
        let past_u32 = [0x80, 0x80, 0x80, 0x80, 0x10];
        // A row of zeros with `field` (0 = id delta ... 8 = len; 4, the
        // codec byte, is not a varint) replaced by `value`.
        let row_with = |field: usize, value: &[u8]| {
            let mut body = vec![0, 1];
            for at in 0..9 {
                if at == field {
                    body.extend_from_slice(value);
                } else {
                    body.push(0);
                }
            }
            sealed_v4(&body)
        };
        for field in [3, 5, 6, 8] {
            // events, raw length, segment delta, len: 32 bits each.
            assert!(
                decode_sidecar(&row_with(field, &u32_max)).is_ok(),
                "{field}"
            );
            assert_eq!(
                decode_sidecar(&row_with(field, &past_u32)),
                Err(FallbackReason::Unreadable),
                "field {field} past 2^32 - 1"
            );
        }
        for field in [0, 1, 2, 3, 5, 6, 7, 8] {
            // Zero as two bytes, and 1 as three: not minimal.
            for padded in [&[0x80, 0x00][..], &[0x81, 0x80, 0x00]] {
                assert_eq!(
                    decode_sidecar(&row_with(field, padded)),
                    Err(FallbackReason::Unreadable),
                    "field {field}: {padded:02x?}"
                );
            }
        }
        for body in [
            // Counts that are not minimal.
            &[0x80, 0x00, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0][..],
            &[0, 0x81, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            // The rows end before the CRC.
            &[0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            &[0, 0, 0],
            // The last row runs into it.
            &[0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0x80],
            &[0, 1, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x80],
            // No counts at all.
            &[],
            &[0],
        ] {
            assert_eq!(
                decode_sidecar(&sealed_v4(body)),
                Err(FallbackReason::Unreadable),
                "{body:02x?}"
            );
        }
    }

    fn arbitrary_segment() -> impl Strategy<Value = SegmentMeta> {
        (any::<u32>(), extreme_u64(), any::<u8>()).prop_map(|(seq, committed_bytes, version)| {
            SegmentMeta {
                seq,
                committed_bytes,
                version,
            }
        })
    }

    /// Mostly arbitrary, with the extremes drawn often.
    fn extreme_u64() -> impl Strategy<Value = u64> {
        (any::<u64>(), 0u8..4).prop_map(|(value, pick)| match pick {
            0 => 0,
            1 => u64::MAX,
            _ => value,
        })
    }

    fn extreme_u32() -> impl Strategy<Value = u32> {
        (any::<u32>(), 0u8..4).prop_map(|(value, pick)| match pick {
            0 => 0,
            1 => u32::MAX,
            _ => value,
        })
    }

    fn arbitrary_window() -> impl Strategy<Value = WindowEntry> {
        (
            (extreme_u64(), extreme_u64(), extreme_u64(), extreme_u64()),
            (extreme_u32(), extreme_u32(), extreme_u32(), extreme_u32()),
            any::<u8>(),
        )
            .prop_map(
                |(
                    (window_id, start_ns, end_ns, offset),
                    (events, segment, len, raw_len),
                    codec,
                )| {
                    WindowEntry {
                        window_id,
                        start_ns,
                        end_ns,
                        events,
                        segment,
                        offset,
                        len,
                        codec,
                        raw_len,
                    }
                },
            )
    }

    /// A step of a recorded-looking lane: the next window and frame, or a
    /// jump of any field — ids out of order, segments going backwards,
    /// frames that are not back to back.
    fn arbitrary_step() -> impl Strategy<Value = (u8, WindowEntry)> {
        (0u8..8, arbitrary_window())
    }

    fn lane_of_steps(steps: &[(u8, WindowEntry)]) -> Vec<WindowEntry> {
        let mut windows: Vec<WindowEntry> = Vec::new();
        for &(pick, jump) in steps {
            let Some(&last) = windows.last() else {
                windows.push(jump);
                continue;
            };
            let span = last.end_ns.wrapping_sub(last.start_ns);
            let next = WindowEntry {
                window_id: last.window_id.wrapping_add(1),
                start_ns: last.end_ns,
                end_ns: last.end_ns.wrapping_add(span),
                offset: last.offset.wrapping_add(u64::from(last.len) + 5),
                ..jump
            };
            windows.push(match pick {
                0 => jump,
                1 => WindowEntry {
                    window_id: jump.window_id,
                    ..next
                },
                2 => WindowEntry {
                    segment: jump.segment,
                    ..next
                },
                3 => WindowEntry {
                    offset: jump.offset,
                    ..next
                },
                _ => WindowEntry {
                    segment: last.segment,
                    ..next
                },
            });
        }
        windows
    }

    proptest! {
        /// The encoding is a bijection on `LaneIndex` values — it carries
        /// every field at full width and judges none of them (trust is
        /// `try_sidecar`'s business).
        #[test]
        fn sidecar_round_trips_any_lane_index(
            lane in any::<u32>(),
            segments in prop::collection::vec(arbitrary_segment(), 0..6),
            windows in prop::collection::vec(arbitrary_window(), 0..40),
            steps in prop::collection::vec(arbitrary_step(), 0..60),
            template in arbitrary_window(),
        ) {
            let mut index = LaneIndex::new(lane);
            index.segments = segments;
            index.windows = windows;
            index.windows.extend(lane_of_steps(&steps));
            // Every codec byte, known to this build or not.
            index
                .windows
                .extend((0..=u8::MAX).map(|codec| WindowEntry { codec, ..template }));
            let bytes = encode_sidecar(&index);
            let (records, rows) = (13 * index.segments.len(), index.windows.len());
            prop_assert!(bytes.len() >= 18 + records + 9 * rows);
            // Five 10-byte varints, four 5-byte ones and the codec byte.
            prop_assert!(bytes.len() <= 36 + records + 71 * rows);
            prop_assert_eq!(decode_sidecar(&bytes), Ok(index.clone()));
            prop_assert_eq!(decode_sidecar(&encode_sidecar_v3(&index)), Ok(index));
        }

        /// Whatever a CRC-valid schema-4 file holds, the decoder declines
        /// it or reads the one index that encodes to exactly those bytes.
        #[test]
        fn a_schema_4_sidecar_decodes_only_from_its_own_encoding(
            body in prop::collection::vec(
                (0u8..5, any::<u8>()).prop_map(|(pick, byte)| match pick {
                    0 => 0,
                    1 => 1,
                    2 => 0x80,
                    3 => 0xff,
                    _ => byte,
                }),
                0..80,
            ),
        ) {
            let bytes = sealed_v4(&body);
            if let Ok(index) = decode_sidecar(&bytes) {
                prop_assert_eq!(encode_sidecar(&index), bytes);
            }
        }
    }

    fn window(id: u64, start_ns: u64, end_ns: u64, events: u32, codec: CodecId) -> WindowEntry {
        WindowEntry {
            window_id: id,
            start_ns,
            end_ns,
            events,
            segment: 2,
            offset: 0,
            len: 0,
            codec: codec.as_u8(),
            raw_len: 0,
        }
    }

    /// Appends the frame of `entry` around `block` to `file`, filling in
    /// where it landed.
    fn append(
        file: &mut Vec<u8>,
        version: u8,
        prev: FramePrev,
        entry: &mut WindowEntry,
        block: &[u8],
    ) {
        if entry.codec == 0 {
            entry.raw_len = block.len() as u32;
        }
        let mut frame = Vec::new();
        entry.offset = file.len() as u64;
        entry.len = encode_frame(version, &mut frame, prev, entry, block);
        assert_eq!(
            frame_end(version, entry),
            Some(entry.offset + frame.len() as u64)
        );
        file.extend_from_slice(&frame);
    }

    /// The frame at `at` of segment 2 and its index row behind `prev`.
    fn frame_at(version: u8, bytes: &[u8], at: u64, prev: FramePrev) -> (Frame, WindowEntry) {
        match read_frame(version, bytes, at, true).unwrap() {
            FrameRead::Frame(frame) => {
                let entry = frame.entry(2, at, prev);
                (frame, entry)
            }
            FrameRead::Torn(reason) => panic!("torn at {at}: {reason}"),
        }
    }

    #[test]
    fn v1_frames_keep_the_fixed_layout() {
        let mut file = vec![0xAA; 13];
        let mut entry = window(7, 100, 200, 3, CodecId::Identity);
        append(
            &mut file,
            SEGMENT_VERSION_V1,
            FramePrev::default(),
            &mut entry,
            b"payload",
        );
        assert_eq!(entry.len as usize, FRAME_META_LEN + 7);
        assert_eq!(file.len(), 13 + 8 + entry.len as usize);
        assert_eq!(read_u32(&file, 13), entry.len);
        assert_eq!(read_u32(&file, 17), crc32(&file[21..]));
        assert_eq!(read_u64(&file, 21), 7);
        assert_eq!(read_u64(&file, 37), 200);
        // `prev` is not part of a v1 frame.
        let (frame, row) = frame_at(SEGMENT_VERSION_V1, &file, 13, FramePrev::after(&entry));
        assert_eq!(row, entry);
        assert_eq!(&file[frame.block], b"payload");
        assert_eq!(frame.body, 21..file.len());
    }

    #[test]
    fn v2_frames_are_still_read() {
        // Nothing writes v2 any more: the fixed 33-byte meta, by hand.
        let mut body = Vec::new();
        for field in [9u64, 50, 60] {
            body.extend_from_slice(&field.to_le_bytes());
        }
        body.extend_from_slice(&4u32.to_le_bytes());
        body.push(CodecId::DeltaVarint.as_u8());
        body.extend_from_slice(&120u32.to_le_bytes());
        body.extend_from_slice(b"block");
        let mut file = vec![0xAA; 13];
        file.extend_from_slice(&(body.len() as u32).to_le_bytes());
        file.extend_from_slice(&crc32(&body).to_le_bytes());
        file.extend_from_slice(&body);
        let (frame, row) = frame_at(SEGMENT_VERSION_V2, &file, 13, FramePrev::default());
        let expected = WindowEntry {
            offset: 13,
            len: 33 + 5,
            raw_len: 120,
            ..window(9, 50, 60, 4, CodecId::DeltaVarint)
        };
        assert_eq!(row, expected);
        assert_eq!(frame.codec, CodecId::DeltaVarint);
        assert_eq!(&file[frame.block], b"block");
        assert_eq!(
            frame_end(SEGMENT_VERSION_V2, &expected),
            Some(file.len() as u64)
        );
    }

    #[test]
    fn a_v3_window_that_follows_its_predecessor_costs_eleven_bytes_of_envelope() {
        let mut file = vec![0xAA; 13];
        let mut first = window(40, 1_000_000_000, 1_040_000_000, 5, CodecId::Identity);
        append(
            &mut file,
            SEGMENT_VERSION_V3,
            FramePrev::default(),
            &mut first,
            &[7; 40],
        );
        // Against (0, 0, 0): a one-byte id, a five-byte start and a
        // four-byte span.
        assert_eq!(file.len() - 13, 1 + 4 + (1 + 5 + 4 + 1 + 1 + 1) + 40);
        let mut second = window(41, 1_040_000_000, 1_080_000_000, 5, CodecId::Identity);
        append(
            &mut file,
            SEGMENT_VERSION_V3,
            FramePrev::after(&first),
            &mut second,
            &[8; 40],
        );
        assert_eq!(file.len() as u64 - second.offset, 1 + 4 + 6 + 40);
        assert_eq!(
            &file[second.offset as usize + 5..][..6],
            [2, 0, 0, 5, 0, 40]
        );

        let (_, row) = frame_at(SEGMENT_VERSION_V3, &file, 13, FramePrev::default());
        assert_eq!(row, first);
        let (frame, row) = frame_at(
            SEGMENT_VERSION_V3,
            &file,
            second.offset,
            FramePrev::after(&first),
        );
        assert_eq!(row, second);
        assert_eq!(&file[frame.block], [8; 40]);
        assert_eq!(frame.body.end, file.len());

        let mut index = LaneIndex::new(0);
        index.segments.push(SegmentMeta {
            seq: 2,
            committed_bytes: file.len() as u64,
            version: SEGMENT_VERSION_V3,
        });
        index.windows = vec![first, second];
        assert_eq!(envelope_and_stored_bytes(&index), (18 + 11, 80));
    }

    #[test]
    fn a_frame_length_no_writer_emits_is_a_torn_tail() {
        let torn = |version, bytes: &[u8], at| match read_frame(version, bytes, at, true).unwrap() {
            FrameRead::Torn(reason) => reason,
            FrameRead::Frame(frame) => panic!("parsed {frame:?}"),
        };
        let mut file = Vec::new();
        let mut entry = window(1, 2, 3, 4, CodecId::Identity);
        append(
            &mut file,
            SEGMENT_VERSION_V3,
            FramePrev::default(),
            &mut entry,
            b"abc",
        );
        assert_eq!(file[0], 9, "a six-byte meta and the block");
        // The same frame behind a two-byte spelling of its length.
        let mut padded = vec![0x89, 0x00];
        padded.extend_from_slice(&file[1..]);
        assert_eq!(
            torn(SEGMENT_VERSION_V3, &padded, 0),
            "no frame length field"
        );
        // Past 2^30, shorter than any meta, past the end, past the file.
        for (version, length) in [
            (SEGMENT_VERSION_V3, &[0x81, 0x80, 0x80, 0x80, 0x04][..]),
            (SEGMENT_VERSION_V3, &[5][..]),
            (SEGMENT_VERSION_V1, &[27, 0, 0, 0][..]),
            (SEGMENT_VERSION_V2, &[0xFF; 4][..]),
        ] {
            let mut bytes = length.to_vec();
            bytes.extend_from_slice(&[0; 64]);
            assert_eq!(torn(version, &bytes, 0), "frame length out of range");
        }
        assert_eq!(
            torn(SEGMENT_VERSION_V3, &file[..file.len() - 1], 0),
            "frame runs past the end of the segment"
        );
        assert_eq!(
            torn(SEGMENT_VERSION_V3, &file, file.len() as u64 + 1),
            "frame starts past the end of the segment"
        );
        assert_eq!(
            torn(SEGMENT_VERSION_V3, &file, u64::MAX),
            "frame starts past the end of the segment"
        );
        *file.last_mut().unwrap() ^= 1;
        assert_eq!(torn(SEGMENT_VERSION_V3, &file, 0), "crc mismatch");
    }

    #[test]
    fn a_crc_valid_frame_that_contradicts_itself_is_an_error_not_a_tail() {
        // A codec id from the future, and an identity frame whose block
        // is not its raw length.
        for (codec, raw_len) in [(9u8, 3u32), (0, 4)] {
            let entry = WindowEntry {
                codec,
                raw_len,
                ..window(1, 2, 3, 4, CodecId::LzBlock)
            };
            let mut frame = Vec::new();
            encode_frame(
                SEGMENT_VERSION_V3,
                &mut frame,
                FramePrev::default(),
                &entry,
                b"abc",
            );
            let error = read_frame(SEGMENT_VERSION_V3, &frame, 0, true).unwrap_err();
            assert!(matches!(error, TraceError::Decode { .. }), "{error}");
        }
    }

    fn arbitrary_frames() -> impl Strategy<Value = Vec<(WindowEntry, Vec<u8>)>> {
        // Counts and raw lengths at zero, the varint edges and `u32::MAX`.
        let edgy_u32 = || {
            (any::<u32>(), 0usize..8).prop_map(|(value, pick)| {
                [0, 127, 128, 16_383, 16_384, u32::MAX]
                    .get(pick)
                    .copied()
                    .unwrap_or(value)
            })
        };
        let frame = (
            (extreme_u64(), extreme_u64(), extreme_u64()),
            edgy_u32(),
            0u8..3,
            edgy_u32(),
            prop::collection::vec(any::<u8>(), 0..200),
        )
            .prop_map(|((id, start_ns, end_ns), events, codec, raw_len, block)| {
                let codec = CodecId::from_u8(codec).unwrap();
                let mut entry = window(id, start_ns, end_ns, events, codec);
                entry.raw_len = raw_len;
                (entry, block)
            });
        prop::collection::vec(frame, 1..12)
    }

    proptest! {
        /// Any `u64` sequence of ids and timestamps survives the v3 delta
        /// coding, frame after frame, and the index arithmetic
        /// (`frame_end`, `envelope_and_stored_bytes`) agrees with the
        /// bytes written.
        #[test]
        fn v3_frames_round_trip_any_window_sequence(frames in arbitrary_frames()) {
            let mut frames = frames;
            let mut file = segment_header(0, 2, SEGMENT_VERSION_V3).to_vec();
            let mut prev = FramePrev::default();
            for (entry, block) in &mut frames {
                append(&mut file, SEGMENT_VERSION_V3, prev, entry, block);
                prev = FramePrev::after(entry);
            }
            let (mut at, mut prev) = (SEGMENT_HEADER_LEN, FramePrev::default());
            for (entry, block) in &frames {
                let (frame, row) = frame_at(SEGMENT_VERSION_V3, &file, at, prev);
                prop_assert_eq!(&row, entry);
                prop_assert_eq!(&file[frame.block.clone()], &block[..]);
                // An index-driven reader finds the same block with no
                // predecessor in hand.
                let indexed =
                    read_indexed_frame(SEGMENT_VERSION_V3, &file, 0, entry, true)
                        .unwrap();
                prop_assert_eq!(indexed.block, frame.block);
                prop_assert_eq!((indexed.raw_len, indexed.events), (entry.raw_len, entry.events));
                at = frame.body.end as u64;
                prev = FramePrev::after(entry);
            }
            prop_assert_eq!(at, file.len() as u64);

            let mut index = LaneIndex::new(0);
            index.segments.push(SegmentMeta {
                seq: 2,
                committed_bytes: at,
                version: SEGMENT_VERSION_V3,
            });
            index.windows = frames.iter().map(|(entry, _)| *entry).collect();
            let (envelope, stored) = envelope_and_stored_bytes(&index);
            let blocks: u64 = frames.iter().map(|(_, block)| block.len() as u64).sum();
            prop_assert_eq!(stored, blocks);
            prop_assert_eq!(SEGMENT_HEADER_LEN + envelope + stored, at);
        }
    }

    #[test]
    fn headers_parse_for_every_version_and_reject_unknown() {
        let path = std::path::Path::new("lane0001-000002.seg");
        let parse = |bytes: &[u8], seq| SegmentHead::parse(bytes, path, 1, seq);
        // A v4 header is followed by its table section (tested below).
        for version in [SEGMENT_VERSION_V1, SEGMENT_VERSION_V2, SEGMENT_VERSION_V3] {
            let header = segment_header(1, 2, version);
            assert_eq!(parse(&header, 2).unwrap().version, version);
            assert_eq!(parse(&header, 2).unwrap().frames_start, SEGMENT_HEADER_LEN);
            assert!(parse(&header[..12], 2).is_err(), "cut short");
        }
        for version in [0, 5] {
            let bad = segment_header(1, 2, version);
            assert!(parse(&bad, 2).is_err());
        }
        let mut bad = segment_header(1, 2, SEGMENT_VERSION_V1);
        assert!(parse(&bad, 3).is_err());
        bad[0] = b'e';
        assert!(parse(&bad, 2).is_err(), "magic");
    }

    #[test]
    fn a_v4_table_section_is_read_whole_or_refused() {
        use trace_model::{EventTypeId, Timestamp, TraceEvent};
        let path = std::path::Path::new("lane0001-000002.seg");
        let mut table = TemplateTable::default();
        table.push(&[TraceEvent::new(
            Timestamp::from_nanos(0),
            EventTypeId::new(3),
            900,
        )]);
        let mut encoded = Vec::new();
        table.encode(&mut encoded);
        let mut file = segment_header(1, 2, SEGMENT_VERSION_V4).to_vec();
        put_table_section(&mut file, &encoded);
        assert_eq!(file.len() as u64, 13 + table_section_len(&encoded));
        let head = SegmentHead::parse(&file, path, 1, 2).unwrap();
        assert_eq!((head.table, head.frames_start), (table, file.len() as u64));
        // Cut short anywhere past the header, or any bit flipped in the
        // section: an error, never a table.
        for cut in 13..file.len() {
            assert!(
                SegmentHead::parse(&file[..cut], path, 1, 2).is_err(),
                "cut {cut}"
            );
        }
        for at in 13..file.len() {
            for bit in 0..8 {
                let mut flipped = file.clone();
                flipped[at] ^= 1 << bit;
                assert!(
                    SegmentHead::parse(&flipped, path, 1, 2).is_err(),
                    "{at}.{bit}"
                );
            }
        }
        // A v3 segment has no table; its frames start at the header's end.
        let v3 = segment_header(1, 2, SEGMENT_VERSION_V3);
        let head = SegmentHead::parse(&v3, path, 1, 2).unwrap();
        assert!(head.table.is_empty() && head.frames_start == SEGMENT_HEADER_LEN);
    }
}
