//! The on-disk segment format and the recovery scanner.
//!
//! A segment file is:
//!
//! ```text
//! magic    "ESEG"        4 bytes
//! version                1 byte  (1 or 2)
//! lane                   4 bytes u32 LE
//! segment sequence       4 bytes u32 LE
//! frames...
//! ```
//!
//! and every frame is:
//!
//! ```text
//! body length            4 bytes u32 LE   (meta + stored block)
//! crc32 of the body      4 bytes u32 LE   (IEEE, see `crc32`)
//! body:
//!   window id            8 bytes u64 LE
//!   window start (ns)    8 bytes u64 LE
//!   window end (ns)      8 bytes u64 LE
//!   event count          4 bytes u32 LE
//!   -- format v2 only --
//!   codec id             1 byte           (see `trace_model::codec::CodecId`)
//!   raw length           4 bytes u32 LE   (uncompressed payload bytes)
//!   -- end v2 --
//!   stored block         the payload under the frame's codec
//! ```
//!
//! In a version-1 segment the stored block *is* the payload (the exact
//! bytes the recorder handed to the sink). In a version-2 segment the
//! block is the payload transformed by the frame's codec; codec id 0
//! (identity) keeps it verbatim, so a v2 identity frame differs from a
//! v1 frame only by the 5 extra meta bytes. Either way a replayed trace
//! is byte-for-byte what an in-memory sink would have kept. A segment
//! holds frames of its own version only — the version byte in the file
//! header governs every frame in the file. `docs/FORMAT.md` is the
//! normative spec.
//!
//! A process killed mid-write leaves a torn final frame; the scanner
//! validates length and CRC frame by frame and reports where the intact
//! prefix ends so reopen can truncate the tail. The CRC covers the
//! *stored* bytes, so scanning never needs to run a codec.

use std::collections::BTreeMap;

use trace_model::codec::CodecId;
use trace_model::TraceError;

use crate::crc32::crc32;
use crate::index::{FallbackReason, LaneIndex, SegmentMeta, TornTail, WindowEntry, SIDECAR_SCHEMA};

/// Magic bytes opening every segment file.
pub(crate) const SEGMENT_MAGIC: &[u8; 4] = b"ESEG";
/// Segment format version writing one raw payload per frame.
pub(crate) const SEGMENT_VERSION_V1: u8 = 1;
/// Segment format version carrying a codec id + raw length per frame.
pub(crate) const SEGMENT_VERSION_V2: u8 = 2;
/// Size of the segment header in bytes.
pub(crate) const SEGMENT_HEADER_LEN: u64 = 13;
/// Size of a frame header (body length + crc) in bytes.
pub(crate) const FRAME_HEADER_LEN: u64 = 8;
/// Size of the fixed frame meta block inside a v1 body.
pub(crate) const FRAME_META_LEN: usize = 28;
/// Size of the fixed frame meta block inside a v2 body (v1 meta plus
/// codec id byte and 4-byte raw length).
pub(crate) const FRAME_META_LEN_V2: usize = FRAME_META_LEN + 5;
/// Upper bound on a frame body, guarding recovery against absurd lengths
/// read from corrupt headers.
pub(crate) const MAX_FRAME_BODY: u32 = 1 << 30;

/// Whether `version` is a segment format this build can read.
pub(crate) fn known_segment_version(version: u8) -> bool {
    version == SEGMENT_VERSION_V1 || version == SEGMENT_VERSION_V2
}

/// Fixed frame meta length of a segment format version.
pub(crate) fn frame_meta_len(version: u8) -> usize {
    if version >= SEGMENT_VERSION_V2 {
        FRAME_META_LEN_V2
    } else {
        FRAME_META_LEN
    }
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
    /// Segment sequence numbers, ascending.
    pub seqs: Vec<u32>,
    /// Whether the merge journal is present.
    pub journal: bool,
    /// Whether a legacy JSON sidecar is present (for the lane's next
    /// sidecar write to remove).
    pub legacy_sidecar: bool,
    /// Names of the lane's in-flight temp files.
    pub temps: Vec<String>,
}

/// Lists a store directory, once, by lane (only the lane `only` when
/// given). Every store operation takes one listing when it starts and
/// works from it.
pub(crate) fn list_store_dir(
    dir: &std::path::Path,
    only: Option<u32>,
) -> std::io::Result<BTreeMap<u32, LaneFiles>> {
    let mut lanes: BTreeMap<u32, LaneFiles> = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some((lane, file)) = classify_file_name(name) else {
            continue;
        };
        if only.is_some_and(|only| only != lane) {
            continue;
        }
        let files = lanes.entry(lane).or_default();
        match file {
            StoreFile::Segment(seq) => files.seqs.push(seq),
            StoreFile::Journal => files.journal = true,
            StoreFile::LegacySidecar => files.legacy_sidecar = true,
            StoreFile::Temp => files.temps.push(name.to_owned()),
            // Opened by name when the lane's index is loaded.
            StoreFile::Sidecar => {}
        }
    }
    for files in lanes.values_mut() {
        files.seqs.sort_unstable();
    }
    Ok(lanes)
}

/// One lane's files out of a listing of the whole directory (empty when
/// the lane has none).
pub(crate) fn list_lane(dir: &std::path::Path, lane: u32) -> std::io::Result<LaneFiles> {
    Ok(list_store_dir(dir, Some(lane))?
        .remove(&lane)
        .unwrap_or_default())
}

/// The cross-file corruption error for a segment whose on-disk header
/// does not match the lane/sequence its file name claims — one message,
/// shared by open-time and read-time validation.
pub(crate) fn segment_header_mismatch(path: &std::path::Path, lane: u32, seq: u32) -> TraceError {
    TraceError::Decode {
        offset: 0,
        reason: format!(
            "{}: segment header does not name lane {lane} segment {seq}",
            path.display()
        ),
    }
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

/// Validates the 13 header bytes of a loaded segment, returning its
/// format version.
pub(crate) fn parse_segment_header(
    bytes: &[u8],
    path: &std::path::Path,
    lane: u32,
    seq: u32,
) -> Result<u8, TraceError> {
    if bytes.len() < SEGMENT_HEADER_LEN as usize
        || &bytes[..4] != SEGMENT_MAGIC
        || !known_segment_version(bytes[4])
    {
        return Err(segment_header_mismatch(path, lane, seq));
    }
    let (file_lane, file_seq) = (read_u32(bytes, 5), read_u32(bytes, 9));
    if (file_lane, file_seq) != (lane, seq) {
        return Err(segment_header_mismatch(path, lane, seq));
    }
    Ok(bytes[4])
}

/// Builds one v1 frame (header + body) into `out` (cleared first) and
/// returns the body length.
pub(crate) fn build_frame(
    out: &mut Vec<u8>,
    window_id: u64,
    start_ns: u64,
    end_ns: u64,
    event_count: u32,
    payload: &[u8],
) -> u32 {
    build_frame_headerless(out, window_id, start_ns, end_ns, event_count, None, payload)
}

/// Builds one v2 frame (header + body) into `out` (cleared first) and
/// returns the body length. `raw_len` is the uncompressed payload size;
/// `block` is the payload under `codec`.
#[allow(clippy::too_many_arguments)] // mirrors the frame layout, field by field
pub(crate) fn build_frame_v2(
    out: &mut Vec<u8>,
    window_id: u64,
    start_ns: u64,
    end_ns: u64,
    event_count: u32,
    codec: CodecId,
    raw_len: u32,
    block: &[u8],
) -> u32 {
    build_frame_headerless(
        out,
        window_id,
        start_ns,
        end_ns,
        event_count,
        Some((codec, raw_len)),
        block,
    )
}

fn build_frame_headerless(
    out: &mut Vec<u8>,
    window_id: u64,
    start_ns: u64,
    end_ns: u64,
    event_count: u32,
    v2: Option<(CodecId, u32)>,
    block: &[u8],
) -> u32 {
    let meta_len = if v2.is_some() {
        FRAME_META_LEN_V2
    } else {
        FRAME_META_LEN
    };
    let body_len = (meta_len + block.len()) as u32;
    out.clear();
    out.reserve(FRAME_HEADER_LEN as usize + body_len as usize);
    out.extend_from_slice(&body_len.to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // crc placeholder
    out.extend_from_slice(&window_id.to_le_bytes());
    out.extend_from_slice(&start_ns.to_le_bytes());
    out.extend_from_slice(&end_ns.to_le_bytes());
    out.extend_from_slice(&event_count.to_le_bytes());
    if let Some((codec, raw_len)) = v2 {
        out.push(codec.as_u8());
        out.extend_from_slice(&raw_len.to_le_bytes());
    }
    out.extend_from_slice(block);
    let crc = crc32(&out[FRAME_HEADER_LEN as usize..]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    body_len
}

pub(crate) fn read_u32(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"))
}

fn read_u64(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"))
}

/// Magic bytes opening every binary sidecar.
const SIDECAR_MAGIC: &[u8; 4] = b"EIDX";
/// Sidecar header: magic, schema, lane, segment count (`u32` each), then
/// the window count (`u64`).
const SIDECAR_HEADER_LEN: usize = 24;
/// One [`SegmentMeta`] record: seq, committed bytes, version.
const SEGMENT_RECORD_LEN: usize = 13;
/// One [`WindowEntry`] record, fields in struct order.
const WINDOW_RECORD_LEN: usize = 49;

/// Serialises a lane index as the binary sidecar of `docs/FORMAT.md` §4:
/// header, fixed-width little-endian records, and a trailing CRC-32 over
/// everything before it.
pub(crate) fn encode_sidecar(index: &LaneIndex) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        SIDECAR_HEADER_LEN
            + SEGMENT_RECORD_LEN * index.segments.len()
            + WINDOW_RECORD_LEN * index.windows.len()
            + 4,
    );
    out.extend_from_slice(SIDECAR_MAGIC);
    out.extend_from_slice(&SIDECAR_SCHEMA.to_le_bytes());
    out.extend_from_slice(&index.lane.to_le_bytes());
    let segments = u32::try_from(index.segments.len()).expect("sequence numbers are u32");
    out.extend_from_slice(&segments.to_le_bytes());
    out.extend_from_slice(&(index.windows.len() as u64).to_le_bytes());
    for meta in &index.segments {
        let mut record = [0u8; SEGMENT_RECORD_LEN];
        record[..4].copy_from_slice(&meta.seq.to_le_bytes());
        record[4..12].copy_from_slice(&meta.committed_bytes.to_le_bytes());
        record[12] = meta.version;
        out.extend_from_slice(&record);
    }
    for entry in &index.windows {
        let mut record = [0u8; WINDOW_RECORD_LEN];
        record[..8].copy_from_slice(&entry.window_id.to_le_bytes());
        record[8..16].copy_from_slice(&entry.start_ns.to_le_bytes());
        record[16..24].copy_from_slice(&entry.end_ns.to_le_bytes());
        record[24..28].copy_from_slice(&entry.events.to_le_bytes());
        record[28..32].copy_from_slice(&entry.segment.to_le_bytes());
        record[32..40].copy_from_slice(&entry.offset.to_le_bytes());
        record[40..44].copy_from_slice(&entry.len.to_le_bytes());
        record[44] = entry.codec;
        record[45..49].copy_from_slice(&entry.raw_len.to_le_bytes());
        out.extend_from_slice(&record);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parses a binary sidecar, accepting only a file that is intact (magic,
/// CRC), of this build's schema, and exactly as long as its own counts
/// say. The counts are checked against the file length before anything
/// is allocated, so no header can make the decoder reserve more than the
/// file it was handed.
pub(crate) fn decode_sidecar(bytes: &[u8]) -> Result<LaneIndex, FallbackReason> {
    if bytes.len() < SIDECAR_HEADER_LEN + 4 || &bytes[..4] != SIDECAR_MAGIC {
        return Err(FallbackReason::Unreadable);
    }
    let (sealed, stored_crc) = bytes.split_at(bytes.len() - 4);
    if crc32(sealed) != read_u32(stored_crc, 0) {
        return Err(FallbackReason::BadChecksum);
    }
    if read_u32(sealed, 4) != SIDECAR_SCHEMA {
        return Err(FallbackReason::UnknownSchema);
    }
    let lane = read_u32(sealed, 8);
    let segments = u64::from(read_u32(sealed, 12));
    let segments_end = SIDECAR_HEADER_LEN as u64 + SEGMENT_RECORD_LEN as u64 * segments;
    let expected_len = read_u64(sealed, 16)
        .checked_mul(WINDOW_RECORD_LEN as u64)
        .and_then(|window_bytes| window_bytes.checked_add(segments_end));
    if expected_len != Some(sealed.len() as u64) {
        return Err(FallbackReason::Unreadable);
    }
    // `segments_end` is within the file now, so it fits a `usize`.
    let (segment_records, window_records) =
        sealed[SIDECAR_HEADER_LEN..].split_at(segments_end as usize - SIDECAR_HEADER_LEN);
    Ok(LaneIndex {
        schema: SIDECAR_SCHEMA,
        lane,
        segments: segment_records
            .chunks_exact(SEGMENT_RECORD_LEN)
            .map(|record| SegmentMeta {
                seq: read_u32(record, 0),
                committed_bytes: read_u64(record, 4),
                version: record[12],
            })
            .collect(),
        windows: window_records
            .chunks_exact(WINDOW_RECORD_LEN)
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

/// Atomically persists a lane sidecar (temp file + rename), shared by the
/// writer's `sync`/`close` and the compactor. With `remove_legacy` — the
/// caller's listing saw the lane's `.idx.json` — that file is removed
/// once the `.idx` is in place, so a lane converges to one sidecar.
pub(crate) fn write_sidecar(
    dir: &std::path::Path,
    index: &LaneIndex,
    remove_legacy: bool,
) -> Result<(), TraceError> {
    let name = sidecar_file_name(index.lane);
    let tmp = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, encode_sidecar(index))?;
    std::fs::rename(&tmp, dir.join(name))?;
    if remove_legacy {
        match std::fs::remove_file(dir.join(legacy_sidecar_file_name(index.lane))) {
            // Already gone (a cache is always safe to delete by hand).
            Err(error) if error.kind() != std::io::ErrorKind::NotFound => return Err(error.into()),
            _ => {}
        }
    }
    Ok(())
}

/// Parses a validated frame body into a [`WindowEntry`] anchored at
/// `(seq, offset)`. For v2 bodies the codec id must already have been
/// checked by the caller.
pub(crate) fn entry_from_body(version: u8, seq: u32, offset: u64, body: &[u8]) -> WindowEntry {
    let (codec, raw_len) = if version >= SEGMENT_VERSION_V2 {
        (body[28], read_u32(body, 29))
    } else {
        (
            CodecId::Identity.as_u8(),
            (body.len() - FRAME_META_LEN) as u32,
        )
    };
    WindowEntry {
        window_id: read_u64(body, 0),
        start_ns: read_u64(body, 8),
        end_ns: read_u64(body, 16),
        events: read_u32(body, 24),
        segment: seq,
        offset,
        len: body.len() as u32,
        codec,
        raw_len,
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

/// Scans one segment file, validating the header and every frame.
///
/// Returns the intact prefix (every complete, CRC-valid frame) and, when
/// the file ends mid-frame or with a corrupt frame, the torn tail to
/// truncate. A file too short to hold the segment header is treated as a
/// torn tail at offset zero (the process died between `create` and the
/// header write).
///
/// # Errors
///
/// Returns [`TraceError::Io`] when the file cannot be read and
/// [`TraceError::Decode`] when the header is present but wrong (bad
/// magic, unknown version, or lane/sequence mismatch), or when a
/// CRC-valid v2 frame names a codec this build does not know — all of
/// that is cross-file or cross-version corruption, not a torn write, and
/// recovery must not silently discard it.
pub(crate) fn scan_segment(
    path: &std::path::Path,
    lane: u32,
    seq: u32,
) -> Result<ScannedSegment, TraceError> {
    let bytes = std::fs::read(path)?;
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
    if &bytes[..4] != SEGMENT_MAGIC {
        return Err(TraceError::Decode {
            offset: 0,
            reason: format!("{}: bad magic, not an ESEG segment", path.display()),
        });
    }
    let version = bytes[4];
    if !known_segment_version(version) {
        return Err(TraceError::Decode {
            offset: 4,
            reason: format!("{}: unsupported segment version {version}", path.display()),
        });
    }
    let (file_lane, file_seq) = (read_u32(&bytes, 5), read_u32(&bytes, 9));
    if (file_lane, file_seq) != (lane, seq) {
        return Err(TraceError::Decode {
            offset: 5,
            reason: format!(
                "{}: header says lane {file_lane} segment {file_seq}, file name says \
                 lane {lane} segment {seq}",
                path.display()
            ),
        });
    }

    let meta_len = frame_meta_len(version);
    let mut entries = Vec::new();
    let mut offset = SEGMENT_HEADER_LEN;
    let mut torn = None;
    while offset < file_len {
        if offset + FRAME_HEADER_LEN > file_len {
            torn = Some(torn_at(offset));
            break;
        }
        let body_len = read_u32(&bytes, offset as usize);
        let stored_crc = read_u32(&bytes, offset as usize + 4);
        let body_start = offset + FRAME_HEADER_LEN;
        let body_end = body_start + u64::from(body_len);
        if body_len > MAX_FRAME_BODY || (body_len as usize) < meta_len || body_end > file_len {
            torn = Some(torn_at(offset));
            break;
        }
        let body = &bytes[body_start as usize..body_end as usize];
        if crc32(body) != stored_crc {
            torn = Some(torn_at(offset));
            break;
        }
        if version >= SEGMENT_VERSION_V2 && CodecId::from_u8(body[28]).is_none() {
            // A CRC-valid frame naming an unknown codec was written by a
            // future build; replaying around it would silently lose data.
            return Err(TraceError::Decode {
                offset: body_start as usize + 28,
                reason: format!(
                    "{}: frame at offset {offset} uses unknown codec id {}",
                    path.display(),
                    body[28]
                ),
            });
        }
        entries.push(entry_from_body(version, seq, offset, body));
        offset = body_end;
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
        let lanes = list_store_dir(&dir, None).unwrap();
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
        let only = list_store_dir(&dir, Some(1234)).unwrap();
        assert_eq!(only.keys().copied().collect::<Vec<_>>(), [1234]);
        assert_eq!(only[&1234].seqs, lanes[&1234].seqs);
        assert!(list_store_dir(&dir, Some(1)).unwrap().is_empty());
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

    #[test]
    fn sidecar_bytes_follow_the_documented_layout() {
        let index = sample_index();
        let bytes = encode_sidecar(&index);
        assert_eq!(bytes.len(), 24 + 13 * 2 + 49 * 5 + 4);
        assert_eq!(&bytes[..4], b"EIDX");
        assert_eq!(read_u32(&bytes, 4), 3, "schema");
        assert_eq!(read_u32(&bytes, 8), 3, "lane");
        assert_eq!(read_u32(&bytes, 12), 2, "segments");
        assert_eq!(read_u64(&bytes, 16), 5, "windows");
        // Second segment record, then the third window record.
        assert_eq!(read_u32(&bytes, 24 + 13), 4);
        assert_eq!(read_u64(&bytes, 24 + 13 + 4), 1004);
        assert_eq!(bytes[24 + 13 + 12], SEGMENT_VERSION_V2);
        let row = 24 + 26 + 49 * 2;
        assert_eq!(read_u64(&bytes, row), 2, "window id");
        assert_eq!(read_u32(&bytes, row + 28), 4, "segment");
        assert_eq!(read_u64(&bytes, row + 32), 213, "offset");
        assert_eq!(bytes[row + 44], 2, "codec");
        assert_eq!(read_u32(&bytes, row + 45), 90, "raw length");
        let sealed = bytes.len() - 4;
        assert_eq!(read_u32(&bytes, sealed), crc32(&bytes[..sealed]));
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
        let mut future = bytes.clone();
        future[4] = 4;
        assert_eq!(
            decode_sidecar(&reseal(future)),
            Err(FallbackReason::UnknownSchema)
        );
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0; 49]);
        assert_eq!(
            decode_sidecar(&reseal(padded)),
            Err(FallbackReason::Unreadable)
        );
    }

    #[test]
    fn hostile_counts_are_rejected_before_anything_is_allocated() {
        // A 40-byte file claiming 2^60 windows, `u64::MAX` windows, and a
        // count whose size in bytes only overflows once the segment
        // records are added: each must be declined on arithmetic alone —
        // reserving room for any of them would abort the process.
        for windows in [1u64 << 60, u64::MAX, (u64::MAX - 36) / 49] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(b"EIDX");
            bytes.extend_from_slice(&SIDECAR_SCHEMA.to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&u32::MAX.to_le_bytes());
            bytes.extend_from_slice(&windows.to_le_bytes());
            bytes.extend_from_slice(&[0; 12]);
            let crc = crc32(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
            assert_eq!(bytes.len(), 40);
            assert_eq!(decode_sidecar(&bytes), Err(FallbackReason::Unreadable));
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

    fn arbitrary_window() -> impl Strategy<Value = WindowEntry> {
        (
            (extreme_u64(), extreme_u64(), extreme_u64(), extreme_u64()),
            (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
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

    proptest! {
        /// The encoding is a bijection on `LaneIndex` values — it carries
        /// every field at full width and judges none of them (trust is
        /// `try_sidecar`'s business).
        #[test]
        fn sidecar_round_trips_any_lane_index(
            lane in any::<u32>(),
            segments in prop::collection::vec(arbitrary_segment(), 0..6),
            windows in prop::collection::vec(arbitrary_window(), 0..40),
            template in arbitrary_window(),
        ) {
            let mut index = LaneIndex::new(lane);
            index.segments = segments;
            index.windows = windows;
            // Every codec byte, known to this build or not.
            index
                .windows
                .extend((0..=u8::MAX).map(|codec| WindowEntry { codec, ..template }));
            let bytes = encode_sidecar(&index);
            prop_assert_eq!(
                bytes.len(),
                28 + 13 * index.segments.len() + 49 * index.windows.len()
            );
            prop_assert_eq!(decode_sidecar(&bytes), Ok(index));
        }
    }

    #[test]
    fn v1_frame_build_is_self_consistent() {
        let mut frame = Vec::new();
        let body_len = build_frame(&mut frame, 7, 100, 200, 3, b"payload");
        assert_eq!(body_len as usize, FRAME_META_LEN + 7);
        assert_eq!(frame.len(), FRAME_HEADER_LEN as usize + body_len as usize);
        let crc = read_u32(&frame, 4);
        assert_eq!(crc, crc32(&frame[8..]));
        let entry = entry_from_body(SEGMENT_VERSION_V1, 2, 13, &frame[8..]);
        assert_eq!(entry.window_id, 7);
        assert_eq!(entry.start_ns, 100);
        assert_eq!(entry.end_ns, 200);
        assert_eq!(entry.events, 3);
        assert_eq!(entry.segment, 2);
        assert_eq!(entry.offset, 13);
        assert_eq!(entry.codec, CodecId::Identity.as_u8());
        assert_eq!(entry.raw_len, 7);
    }

    #[test]
    fn v2_frame_build_carries_codec_and_raw_length() {
        let mut frame = Vec::new();
        let body_len = build_frame_v2(
            &mut frame,
            9,
            50,
            60,
            4,
            CodecId::DeltaVarint,
            120,
            b"block",
        );
        assert_eq!(body_len as usize, FRAME_META_LEN_V2 + 5);
        let entry = entry_from_body(SEGMENT_VERSION_V2, 1, 13, &frame[8..]);
        assert_eq!(entry.codec, CodecId::DeltaVarint.as_u8());
        assert_eq!(entry.raw_len, 120);
        assert_eq!(entry.events, 4);
        assert_eq!(entry.payload_len(), 120);
    }

    #[test]
    fn headers_parse_for_both_versions_and_reject_unknown() {
        let path = std::path::Path::new("lane0001-000002.seg");
        for version in [SEGMENT_VERSION_V1, SEGMENT_VERSION_V2] {
            let header = segment_header(1, 2, version);
            assert_eq!(parse_segment_header(&header, path, 1, 2).unwrap(), version);
        }
        let mut bad = segment_header(1, 2, 3);
        assert!(parse_segment_header(&bad, path, 1, 2).is_err());
        bad = segment_header(1, 2, SEGMENT_VERSION_V1);
        assert!(parse_segment_header(&bad, path, 1, 3).is_err());
    }
}
