//! The sidecar window index and the recovery report.
//!
//! Each lane persists a binary, CRC-sealed sidecar (`laneNNNN.idx`) next
//! to its segment files mapping every recorded window — id, timestamp
//! range, event count, codec — to its exact frame location `(segment,
//! byte offset, length)`. Replay seeks straight to a window instead of
//! scanning the run.
//!
//! The segment files are the source of truth; the sidecar is a cache
//! written on [`crate::LaneWriter::sync`]/`close`. On open the reader
//! trusts a sidecar only when it is intact, names exactly the on-disk
//! segments at exactly their file lengths and every row lies inside its
//! segment — anything else (a crash after frames were appended, a torn
//! tail, a missing or damaged sidecar) falls back to the CRC-validating
//! segment scanner, and [`RecoveryReport::sidecar_fallbacks`] says why.
//!
//! Sidecar schema 4 (this build) is the binary layout of
//! `docs/FORMAT.md` §4: each window row is a v3 frame's meta block, coded
//! against the row before it, and the frame's location as varints.
//! Schema 3, the same file with fixed-width 49-byte rows, is never
//! written again but still read. Schemas 1 and 2 were JSON files
//! (`laneNNNN.idx.json`); they are never written again either but still
//! read when a lane has no `.idx` — schema-1 entries, written before
//! frame compression existed, are normalised on load (identity codec, raw
//! length derived from the frame length).

use serde::{Deserialize, Serialize};
use trace_model::WindowId;

use crate::segment::{envelope_and_stored_bytes, FRAME_META_LEN, SEGMENT_VERSION_V1};

/// Sidecar schema version written by this build (binary `.idx`).
pub(crate) const SIDECAR_SCHEMA: u32 = 4;
/// The fixed-width binary schema before it, accepted on read from `.idx`.
pub(crate) const SIDECAR_SCHEMA_V3: u32 = 3;
/// The last JSON sidecar schema, accepted on read from `.idx.json`.
pub(crate) const SIDECAR_SCHEMA_V2: u32 = 2;
/// The pre-compression JSON sidecar schema, accepted likewise.
pub(crate) const SIDECAR_SCHEMA_V1: u32 = 1;

fn default_segment_version() -> u8 {
    SEGMENT_VERSION_V1
}

/// Where one recorded window lives on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub struct WindowEntry {
    /// The recorded window's id within its run.
    pub window_id: u64,
    /// Window start timestamp, in nanoseconds of trace time.
    pub start_ns: u64,
    /// Window end timestamp (exclusive), in nanoseconds of trace time.
    pub end_ns: u64,
    /// Number of events in the window.
    pub events: u32,
    /// Sequence number of the segment file holding the frame.
    pub segment: u32,
    /// Byte offset of the frame (its header) within the segment file.
    pub offset: u64,
    /// Frame body length in bytes (meta block + stored block).
    pub len: u32,
    /// Wire value of the frame's codec
    /// ([`trace_model::codec::CodecId`]); 0 (identity) for every v1
    /// frame. Schema-1 sidecars omit it and default to 0.
    #[serde(default)]
    pub codec: u8,
    /// Uncompressed payload length in bytes (the exact byte count the
    /// recorder handed to the sink). Schema-1 sidecars omit it; it is
    /// reconstructed as `len - 28` (the v1 meta length) on load.
    #[serde(default)]
    pub raw_len: u32,
}

impl WindowEntry {
    /// Length in bytes of the window's *payload* — the uncompressed bytes
    /// the recorder handed to the sink, regardless of how the frame is
    /// stored on disk.
    pub fn payload_len(&self) -> u32 {
        self.raw_len
    }

    /// Fills the schema-2 fields of an entry parsed from a schema-1
    /// sidecar (identity codec, raw length = v1 body minus meta).
    pub(crate) fn normalise_from_schema_v1(&mut self) {
        self.codec = 0;
        self.raw_len = self.len.saturating_sub(FRAME_META_LEN as u32);
    }
}

/// Summary of one segment file in a lane's sidecar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub struct SegmentMeta {
    /// Sequence number of the segment within its lane.
    pub seq: u32,
    /// Bytes of intact header + frames; equals the file length after a
    /// clean close.
    pub committed_bytes: u64,
    /// Segment format version (1, 2, 3 or 4); schema-1 sidecars omit it
    /// and default to 1.
    #[serde(default = "default_segment_version")]
    pub version: u8,
}

/// The per-lane index: every segment and every recorded window of one
/// lane, in recording order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Deserialize)]
pub struct LaneIndex {
    /// Sidecar schema version.
    pub schema: u32,
    /// The lane this index describes.
    pub lane: u32,
    /// Segment files of the lane, in sequence order.
    pub segments: Vec<SegmentMeta>,
    /// Recorded windows, in recording order.
    pub windows: Vec<WindowEntry>,
}

impl LaneIndex {
    /// Creates an empty index for `lane`.
    pub(crate) fn new(lane: u32) -> Self {
        LaneIndex {
            schema: SIDECAR_SCHEMA,
            lane,
            segments: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// Total events across every indexed window.
    pub fn total_events(&self) -> u64 {
        self.windows.iter().map(|w| u64::from(w.events)).sum()
    }

    /// Total *payload* bytes across every indexed window: the
    /// uncompressed bytes the recorder handed to the sink.
    pub fn total_payload_bytes(&self) -> u64 {
        self.windows
            .iter()
            .map(|w| u64::from(w.payload_len()))
            .sum()
    }

    /// Total *stored block* bytes across every indexed window: what the
    /// payloads actually occupy on disk under their frame codecs
    /// (excluding segment and frame headers).
    pub fn total_stored_bytes(&self) -> u64 {
        envelope_and_stored_bytes(self).1
    }

    /// Position in `windows` of the entry a lookup of `window_id`
    /// answers with: the most recently committed one. A lane resumed by
    /// a second session can hold an id twice (`docs/FORMAT.md` §4); every
    /// by-id read returns the occurrence a follower was delivered last,
    /// by this scan or by the id map a snapshot builds.
    pub(crate) fn latest(&self, window_id: WindowId) -> Option<usize> {
        self.windows
            .iter()
            .rposition(|entry| entry.window_id == window_id.index())
    }

    /// Format version of segment `seq` (1 when the segment is unknown,
    /// which only happens on indexes under construction). Segments are
    /// kept in ascending sequence order everywhere an index is built, so
    /// this is a binary search — `total_stored_bytes` calls it once per
    /// segment.
    pub(crate) fn segment_version(&self, seq: u32) -> u8 {
        self.segments
            .binary_search_by_key(&seq, |meta| meta.seq)
            .map_or(SEGMENT_VERSION_V1, |at| self.segments[at].version)
    }
}

/// One torn tail found (and, on the writer path, truncated) during
/// recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TornTail {
    /// Lane of the damaged segment.
    pub lane: u32,
    /// Sequence number of the damaged segment.
    pub segment: u32,
    /// Byte offset at which the intact prefix ends.
    pub offset: u64,
    /// Bytes past the intact prefix (the torn write).
    pub dropped_bytes: u64,
}

/// Why a reader declined a lane's sidecar and rebuilt the index with the
/// CRC scanner instead (`docs/FORMAT.md` §4, in the order checked).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FallbackReason {
    /// The lane has neither `.idx` nor `.idx.json`: it was never synced,
    /// or the cache was deleted.
    Missing,
    /// The file could not be read, does not open with the `EIDX` magic,
    /// does not parse as its schema or is not exactly as long as its own
    /// counts and rows say — or, for a legacy sidecar, is not the JSON
    /// document of §4.
    Unreadable,
    /// The trailing CRC-32 does not match the bytes before it.
    BadChecksum,
    /// An intact sidecar of a schema this build does not know.
    UnknownSchema,
    /// The sidecar describes another lane (a pack index: another pack).
    LaneMismatch,
    /// The segment list is not exactly the on-disk sequence numbers.
    SegmentListMismatch,
    /// A segment file's length differs from its `committed_bytes`: frames
    /// were appended (or torn) after the sidecar was written. (A pack
    /// index: the pack is not as long as the index says.)
    LengthMismatch,
    /// A window row names an unlisted segment, starts inside the segment
    /// header, overlaps the row before it, is shorter than a frame's meta
    /// block or ends past `committed_bytes`.
    RowOutOfBounds,
}

impl FallbackReason {
    /// Every reason, in the order a reader checks them (and declares
    /// them).
    pub const ALL: [FallbackReason; 8] = [
        FallbackReason::Missing,
        FallbackReason::Unreadable,
        FallbackReason::BadChecksum,
        FallbackReason::UnknownSchema,
        FallbackReason::LaneMismatch,
        FallbackReason::SegmentListMismatch,
        FallbackReason::LengthMismatch,
        FallbackReason::RowOutOfBounds,
    ];

    /// The reason's name, as metric labels spell it.
    pub fn name(self) -> &'static str {
        match self {
            FallbackReason::Missing => "missing",
            FallbackReason::Unreadable => "unreadable",
            FallbackReason::BadChecksum => "bad_checksum",
            FallbackReason::UnknownSchema => "unknown_schema",
            FallbackReason::LaneMismatch => "lane_mismatch",
            FallbackReason::SegmentListMismatch => "segment_list_mismatch",
            FallbackReason::LengthMismatch => "length_mismatch",
            FallbackReason::RowOutOfBounds => "row_out_of_bounds",
        }
    }
}

/// One lane whose sidecar a reader declined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SidecarFallback {
    /// The lane rebuilt by the scanner.
    pub lane: u32,
    /// Why its sidecar was not used.
    pub reason: FallbackReason,
}

/// Which sidecar file a reader trusted for a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SidecarKind {
    /// `laneLLLL.idx`.
    Binary,
    /// `laneLLLL.idx.json`, read only because no `.idx` was present.
    LegacyJson,
    /// The rows of the lane's entry in the index of the pack holding it.
    Pack,
}

/// What opening a store (or resuming a lane writer) found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Lanes present in the directory.
    pub lanes: usize,
    /// Whether every lane's sidecar was trusted as-is (clean close). When
    /// false, at least one lane was rebuilt by the CRC scanner.
    pub clean: bool,
    /// Complete windows recovered across all lanes.
    pub windows: u64,
    /// Events contained in those windows.
    pub events: u64,
    /// Torn tails found, one per damaged segment.
    pub torn_tails: Vec<TornTail>,
    /// Lanes a reader rebuilt with the scanner, each with the reason its
    /// sidecar was declined. (A resuming writer always scans and never
    /// consults the sidecar, so its report leaves this empty.)
    #[serde(default)]
    pub sidecar_fallbacks: Vec<SidecarFallback>,
    /// Lanes whose trusted sidecar was a legacy JSON one (`.idx.json`):
    /// the lane's next `sync`, `close` or compaction replaces it.
    #[serde(default)]
    pub legacy_sidecars: Vec<u32>,
}

impl RecoveryReport {
    /// Folds one lane's recovery into the store-wide report.
    pub(crate) fn absorb_lane(
        &mut self,
        index: &LaneIndex,
        torn: &[TornTail],
        sidecar: Result<SidecarKind, FallbackReason>,
    ) {
        self.lanes += 1;
        self.windows += index.windows.len() as u64;
        self.events += index.total_events();
        self.torn_tails.extend_from_slice(torn);
        match sidecar {
            Ok(SidecarKind::Binary | SidecarKind::Pack) => {}
            Ok(SidecarKind::LegacyJson) => self.legacy_sidecars.push(index.lane),
            Err(reason) => {
                self.clean = false;
                self.sidecar_fallbacks.push(SidecarFallback {
                    lane: index.lane,
                    reason,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SEGMENT_VERSION_V2;

    #[test]
    fn lane_index_totals() {
        let mut index = LaneIndex::new(2);
        index.segments.push(SegmentMeta {
            seq: 0,
            committed_bytes: 100,
            version: SEGMENT_VERSION_V1,
        });
        index.segments.push(SegmentMeta {
            seq: 1,
            committed_bytes: 100,
            version: SEGMENT_VERSION_V2,
        });
        index.windows.push(WindowEntry {
            window_id: 0,
            start_ns: 0,
            end_ns: 10,
            events: 4,
            segment: 0,
            offset: 13,
            len: FRAME_META_LEN as u32 + 9,
            codec: 0,
            raw_len: 9,
        });
        // A v2 frame whose 11-byte payload is stored as a 5-byte block.
        index.windows.push(WindowEntry {
            window_id: 1,
            start_ns: 10,
            end_ns: 20,
            events: 6,
            segment: 1,
            offset: 60,
            len: 33 + 5,
            codec: 1,
            raw_len: 11,
        });
        assert_eq!(index.total_events(), 10);
        assert_eq!(index.total_payload_bytes(), 20);
        assert_eq!(index.total_stored_bytes(), 14);
        assert_eq!(index.windows[0].payload_len(), 9);
    }

    #[test]
    fn schema_v1_entries_normalise_to_identity() {
        let mut entry = WindowEntry {
            window_id: 0,
            start_ns: 0,
            end_ns: 1,
            events: 2,
            segment: 0,
            offset: 13,
            len: FRAME_META_LEN as u32 + 17,
            codec: 9,
            raw_len: 0,
        };
        entry.normalise_from_schema_v1();
        assert_eq!(entry.codec, 0);
        assert_eq!(entry.raw_len, 17);
    }

    #[test]
    fn schema_v1_json_parses_with_defaults() {
        // A sidecar written by the previous release: no codec, raw_len or
        // segment version fields anywhere.
        let json = r#"{
            "schema": 1, "lane": 0,
            "segments": [{"seq": 0, "committed_bytes": 90}],
            "windows": [{"window_id": 3, "start_ns": 1, "end_ns": 2,
                         "events": 4, "segment": 0, "offset": 13, "len": 40}]
        }"#;
        let index: LaneIndex = serde_json::from_str(json).unwrap();
        assert_eq!(index.schema, 1);
        assert_eq!(index.segments[0].version, SEGMENT_VERSION_V1);
        assert_eq!(index.windows[0].codec, 0);
        assert_eq!(
            index.windows[0].raw_len, 0,
            "normalised later by the loader"
        );
    }
}
