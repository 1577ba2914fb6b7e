//! Packs: the segments of many closed lanes in one file.
//!
//! A store of thousands of short lanes pays one of everything per lane:
//! a segment file, a sidecar, an open, a read and a `stat` on every cold
//! open. A [`crate::Compactor`] pass that rewrites two or more lanes of at
//! most 64 KiB into a single segment each writes them into one pack
//! instead (`docs/FORMAT.md` §2.4):
//!
//! ```text
//! magic "EPAK" | version 1 | pack number u32 LE | CRC-32 of the entry headers
//! per lane, ascending: varint lane | varint seq | version byte | varint B | B body bytes
//! ```
//!
//! where the body is everything a v3 or v4 segment file holds after its
//! 13-byte header, byte for byte. The segment a pack entry stands for is
//! that header plus the body: its frames keep their offsets, so a lane's
//! index rows are the same whether its segment is a file of its own or a
//! byte range of a pack, and every reader gets at either through
//! [`read_segment`], the store's one whole-segment read — or, for the
//! small own file of a lane a compaction pass reads once, through the
//! bounded [`read_small_segment`] beside it. One pack index
//! (`packPPPPPP.idx`, §4) stands in for the packed lanes' sidecars; like
//! a sidecar it is a cache, checked against the pack's length, and a
//! declined one costs a scan of the pack, not a window.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use trace_model::codec::varint::{encode_u64, take_minimal_u64, varint_len};
use trace_model::TraceError;

use crate::crc32::crc32;
use crate::index::{FallbackReason, SegmentMeta, WindowEntry};
use crate::segment::{
    commit_file, decode_rows, encode_rows, pack_file_name, pack_index_file_name, read_u32,
    segment_header, Durability, SEGMENT_HEADER_LEN, SEGMENT_VERSION_V3, SEGMENT_VERSION_V4,
};

/// Magic bytes opening every pack.
const PACK_MAGIC: &[u8; 4] = b"EPAK";
/// The pack layout this build writes and reads.
const PACK_VERSION: u8 = 1;
/// Magic, version, pack number and the CRC of the entry headers.
pub(crate) const PACK_HEADER_LEN: u64 = 13;
/// The longest entry header: a five-byte lane and sequence number, the
/// version byte and a ten-byte body length.
const MAX_ENTRY_HEADER_LEN: u64 = 21;
/// Magic bytes opening every pack index.
const PACK_INDEX_MAGIC: &[u8; 4] = b"EPIX";
/// The pack index schema this build writes and reads.
const PACK_INDEX_SCHEMA: u32 = 1;
/// Magic, schema, pack number and pack length.
const PACK_INDEX_FIXED_LEN: usize = 20;
/// The shortest entry record of a pack index: six one-byte fields.
const ENTRY_RECORD_MIN_LEN: usize = 6;

/// Where one lane's segment lies in a pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedSegment {
    /// The pack's number.
    pub pack: u32,
    pub lane: u32,
    /// The segment's sequence number: every own segment file of the lane
    /// numbered up to it is superseded by this entry.
    pub seq: u32,
    /// Format version of the segment the body belongs to (3 or 4).
    pub version: u8,
    /// Offset in the pack of the entry header.
    pub entry: u64,
    /// Offset in the pack of the body, right behind the entry header.
    pub body: u64,
    pub body_len: u64,
}

impl PackedSegment {
    /// Bytes of the segment the entry stands for: the header it replaced
    /// and the body.
    pub(crate) fn committed_bytes(&self) -> u64 {
        SEGMENT_HEADER_LEN + self.body_len
    }

    /// The segment as an index lists it.
    pub(crate) fn meta(&self) -> SegmentMeta {
        SegmentMeta {
            seq: self.seq,
            committed_bytes: self.committed_bytes(),
            version: self.version,
        }
    }

    /// Bytes the entry takes in its pack: its header and its body.
    pub(crate) fn entry_len(&self) -> u64 {
        self.body - self.entry + self.body_len
    }

    /// Whether the entry holds no frame: it only stands in front of the
    /// segments it superseded, whose windows a retention pass dropped.
    pub(crate) fn is_empty(&self) -> bool {
        self.body_len == 0
    }

    /// The pack's path in the store `dir`.
    pub(crate) fn path(&self, dir: &Path) -> PathBuf {
        dir.join(pack_file_name(self.pack))
    }

    /// The segment as the bytes of a segment file of its own — the header
    /// the entry stands for, then its body — read from `pack` (at `path`)
    /// in one read of the entry. The entry header read with it must say
    /// what this entry does: a pack index is taken at its word for nothing
    /// else, and no byte past the end of the pack is ever buffered.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the pack cannot be read, and
    /// [`TraceError::Decode`] for an entry past the end of the pack or one
    /// whose header disagrees.
    pub(crate) fn read_from(&self, pack: &OpenPack, path: &Path) -> Result<Vec<u8>, TraceError> {
        let corrupt = |reason: String| TraceError::Decode {
            offset: self.entry as usize,
            reason: format!("{}: {reason}", path.display()),
        };
        let disagrees = || {
            corrupt(format!(
                "the entry at offset {} is not lane {} segment {} (v{}, {} bytes) as the pack \
                 index says",
                self.entry, self.lane, self.seq, self.version, self.body_len
            ))
        };
        let lead = self
            .body
            .checked_sub(self.entry)
            .filter(|&lead| lead <= MAX_ENTRY_HEADER_LEN)
            .ok_or_else(disagrees)? as usize;
        let body_len = self
            .body
            .checked_add(self.body_len)
            .filter(|&end| end <= pack.len)
            .and_then(|_| usize::try_from(self.body_len).ok())
            .ok_or_else(|| {
                corrupt(format!(
                    "lane {} segment {} runs past the end of the pack",
                    self.lane, self.seq
                ))
            })?;
        // The body lands where a segment file's would, behind the 13-byte
        // header; an entry header longer than that is cut away after.
        let header_len = SEGMENT_HEADER_LEN as usize;
        let start = header_len.max(lead);
        let mut bytes = vec![0; start + body_len];
        pack.read_at(self.entry, &mut bytes[start - lead..])?;
        let mut at = 0;
        let found = take_entry_header(&bytes[start - lead..start], &mut at);
        if found != Some((self.lane, self.seq, self.version, self.body_len)) || at != lead {
            return Err(disagrees());
        }
        bytes.drain(..start - header_len);
        bytes[..header_len].copy_from_slice(&segment_header(self.lane, self.seq, self.version));
        Ok(bytes)
    }
}

/// A pack held open to read its segments from: its header checked and its
/// length taken once, however many of its lanes are read.
#[derive(Debug)]
pub(crate) struct OpenPack {
    file: File,
    len: u64,
}

impl OpenPack {
    /// Opens pack `pack` at `path` and checks its header.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the pack cannot be read, and
    /// [`TraceError::Decode`] for a bad header.
    pub(crate) fn open(path: &Path, pack: u32) -> Result<Self, TraceError> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut header = Vec::with_capacity(PACK_HEADER_LEN as usize);
        (&mut file).take(PACK_HEADER_LEN).read_to_end(&mut header)?;
        check_pack_header(&header, path, pack)?;
        Ok(OpenPack { file, len })
    }

    /// Fills `buf` from offset `at` of the pack: one positioned read, which
    /// moves no file position, so readers of one pack never wait on each
    /// other.
    fn read_at(&self, at: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.file.read_exact_at(buf, at)
    }
}

/// The packed segment `seq` of a lane is, if any: `packed` when it is
/// that segment. With [`read_segment`], the one place a reader decides
/// whether a segment is a file of its own or a byte range of a pack.
pub(crate) fn packed_as(packed: Option<&PackedSegment>, seq: u32) -> Option<&PackedSegment> {
    packed.filter(|packed| packed.seq == seq)
}

/// Reads segment `seq` of `lane` whole — from its own file, or from the
/// pack when `packed` is that segment, as the bytes a file of its own
/// would hold — and the path to name in an error: the one whole-segment
/// read of the store, but for [`read_small_segment`]. A packed segment is read from `pack`, that pack held
/// open, or else from the pack opened for this read.
///
/// # Errors
///
/// [`TraceError::Io`] when the file cannot be read, and
/// [`TraceError::Decode`] for a bad pack header or an entry the pack does
/// not hold as `packed` says.
pub(crate) fn read_segment(
    dir: &Path,
    lane: u32,
    seq: u32,
    packed: Option<&PackedSegment>,
    pack: Option<&OpenPack>,
) -> Result<(PathBuf, Vec<u8>), TraceError> {
    match packed_as(packed, seq) {
        Some(packed) => {
            let path = packed.path(dir);
            let bytes = match pack {
                Some(pack) => packed.read_from(pack, &path)?,
                None => packed.read_from(&OpenPack::open(&path, packed.pack)?, &path)?,
            };
            Ok((path, bytes))
        }
        None => {
            let path = dir.join(crate::segment::segment_file_name(lane, seq));
            let bytes = std::fs::read(&path)?;
            Ok((path, bytes))
        }
    }
}

/// Reads the own segment file `seq` of `lane` whole, as [`read_segment`]
/// does, when it is at most `max_bytes` long: one open, one `fstat` of the
/// open file, one read. `None` for a longer file, which is not read.
///
/// # Errors
///
/// [`TraceError::Io`] when the file cannot be opened or read.
pub(crate) fn read_small_segment(
    dir: &Path,
    lane: u32,
    seq: u32,
    max_bytes: u64,
) -> Result<Option<(PathBuf, Vec<u8>)>, TraceError> {
    let path = dir.join(crate::segment::segment_file_name(lane, seq));
    let file = File::open(&path)?;
    let len = file.metadata()?.len();
    if len > max_bytes {
        return Ok(None);
    }
    let mut bytes = Vec::with_capacity(len as usize);
    file.take(len).read_to_end(&mut bytes)?;
    Ok(Some((path, bytes)))
}

/// Bytes of the entry header of `lane`'s segment `seq` around a body of
/// `body_len` bytes.
pub(crate) fn entry_header_len(lane: u32, seq: u32, body_len: u64) -> usize {
    varint_len(u64::from(lane)) + varint_len(u64::from(seq)) + 1 + varint_len(body_len)
}

fn put_entry_header(out: &mut Vec<u8>, lane: u32, seq: u32, version: u8, body_len: u64) {
    encode_u64(u64::from(lane), out);
    encode_u64(u64::from(seq), out);
    out.push(version);
    encode_u64(body_len, out);
}

/// Reads the entry header at `*at`, advancing it: lane, seq, version and
/// body length, or `None` unless they are minimal varints (lane and seq
/// in `u32`) around a version of 3 or 4.
fn take_entry_header(bytes: &[u8], at: &mut usize) -> Option<(u32, u32, u8, u64)> {
    let lane = u32::try_from(take_minimal_u64(bytes, at)?).ok()?;
    let seq = u32::try_from(take_minimal_u64(bytes, at)?).ok()?;
    let version = *bytes.get(*at)?;
    *at += 1;
    if version != SEGMENT_VERSION_V3 && version != SEGMENT_VERSION_V4 {
        return None;
    }
    Some((lane, seq, version, take_minimal_u64(bytes, at)?))
}

/// Checks the pack header of `bytes`, the pack numbered `pack`.
fn check_pack_header(bytes: &[u8], path: &Path, pack: u32) -> Result<(), TraceError> {
    let corrupt = |reason: String| TraceError::Decode {
        offset: 0,
        reason: format!("{}: {reason}", path.display()),
    };
    if bytes.len() < PACK_HEADER_LEN as usize || &bytes[..4] != PACK_MAGIC {
        return Err(corrupt("not an EPAK pack".into()));
    }
    if bytes[4] != PACK_VERSION {
        return Err(corrupt(format!("unsupported pack version {}", bytes[4])));
    }
    let named = read_u32(bytes, 5);
    if named != pack {
        return Err(corrupt(format!(
            "header says pack {named}, file name says pack {pack}"
        )));
    }
    Ok(())
}

/// Walks the pack `bytes` from its header to its last byte: every entry,
/// in file order. The pack is written whole (temp file, fsync, rename),
/// so nothing in it is a torn write.
///
/// # Errors
///
/// [`TraceError::Decode`] for a bad header, an entry header that does not
/// parse, a body past the end of the pack, lanes that do not ascend, or
/// entry headers that fail the header's CRC.
fn scan_pack(bytes: &[u8], path: &Path, pack: u32) -> Result<Vec<PackedSegment>, TraceError> {
    check_pack_header(bytes, path, pack)?;
    let corrupt = |offset: usize, reason: &str| TraceError::Decode {
        offset,
        reason: format!("{}: {reason}", path.display()),
    };
    let mut entries: Vec<PackedSegment> = Vec::new();
    let mut headers = Vec::new();
    let mut at = PACK_HEADER_LEN as usize;
    while at < bytes.len() {
        let entry = at;
        let (lane, seq, version, body_len) = take_entry_header(bytes, &mut at)
            .ok_or_else(|| corrupt(entry, "entry header does not parse"))?;
        let body = at;
        at = usize::try_from(body_len)
            .ok()
            .and_then(|len| body.checked_add(len))
            .filter(|&end| end <= bytes.len())
            .ok_or_else(|| corrupt(entry, "entry runs past the end of the pack"))?;
        if entries.last().is_some_and(|last| last.lane >= lane) {
            return Err(corrupt(entry, "lanes do not ascend"));
        }
        headers.extend_from_slice(&bytes[entry..body]);
        entries.push(PackedSegment {
            pack,
            lane,
            seq,
            version,
            entry: entry as u64,
            body: body as u64,
            body_len,
        });
    }
    if crc32(&headers) != read_u32(bytes, 9) {
        return Err(corrupt(9, "entry headers fail the pack's crc"));
    }
    Ok(entries)
}

/// One lane of a pack to write: its segment, as a segment file of its own
/// would hold it.
#[derive(Debug)]
pub(crate) struct PackMember<'a> {
    pub lane: u32,
    pub seq: u32,
    /// The segment's bytes, header included (it is not written).
    pub segment: &'a [u8],
}

/// Bytes a pack of `members` takes.
pub(crate) fn pack_len(members: &[PackMember<'_>]) -> u64 {
    PACK_HEADER_LEN + members.iter().map(PackMember::entry_len).sum::<u64>()
}

impl PackMember<'_> {
    /// Bytes the member's entry takes in a pack: header and body.
    pub(crate) fn entry_len(&self) -> u64 {
        let body_len = self.body().len() as u64;
        entry_header_len(self.lane, self.seq, body_len) as u64 + body_len
    }

    fn body(&self) -> &[u8] {
        &self.segment[SEGMENT_HEADER_LEN as usize..]
    }

    fn version(&self) -> u8 {
        self.segment[4]
    }
}

/// Writes pack `pack` of `members`, in ascending lane order, through
/// [`commit_file`] — its rename the commit, synced with the directory —
/// and returns where each member's segment now lies.
///
/// # Errors
///
/// [`TraceError::Io`] on filesystem failures.
pub(crate) fn write_pack(
    dir: &Path,
    pack: u32,
    members: &[PackMember<'_>],
) -> Result<Vec<PackedSegment>, TraceError> {
    debug_assert!(members.windows(2).all(|pair| pair[0].lane < pair[1].lane));
    let mut headers = Vec::new();
    let mut header_ends = Vec::with_capacity(members.len());
    let mut entries = Vec::with_capacity(members.len());
    let mut at = PACK_HEADER_LEN;
    for member in members {
        let body_len = member.body().len() as u64;
        let start = headers.len();
        put_entry_header(
            &mut headers,
            member.lane,
            member.seq,
            member.version(),
            body_len,
        );
        header_ends.push(headers.len());
        let body = at + (headers.len() - start) as u64;
        entries.push(PackedSegment {
            pack,
            lane: member.lane,
            seq: member.seq,
            version: member.version(),
            entry: at,
            body,
            body_len,
        });
        at = body + body_len;
    }
    let mut header = Vec::with_capacity(PACK_HEADER_LEN as usize);
    header.extend_from_slice(PACK_MAGIC);
    header.push(PACK_VERSION);
    header.extend_from_slice(&pack.to_le_bytes());
    header.extend_from_slice(&crc32(&headers).to_le_bytes());

    // The rename is the commit, and the packed lanes' files are deleted
    // next: it must reach the disk before any of those deletions does.
    commit_file(dir, &pack_file_name(pack), Durability::Committed, |file| {
        let mut out = std::io::BufWriter::new(file);
        out.write_all(&header)?;
        let mut start = 0;
        for (member, end) in members.iter().zip(header_ends) {
            out.write_all(&headers[start..end])?;
            out.write_all(member.body())?;
            start = end;
        }
        out.flush()
    })?;
    Ok(entries)
}

/// A lane's rows in a trusted pack index, decoded when the lane is first
/// read.
#[derive(Debug, Clone)]
pub(crate) struct IndexRows {
    bytes: Arc<Vec<u8>>,
    range: Range<usize>,
    windows: u64,
}

impl IndexRows {
    /// The rows, or `None` unless they are `windows` rows filling their
    /// bytes exactly.
    pub(crate) fn decode(&self) -> Option<Vec<WindowEntry>> {
        decode_rows(&self.bytes[self.range.clone()], self.windows)
    }
}

/// One entry of a pack, and its rows when the pack index was trusted.
#[derive(Debug, Clone)]
pub(crate) struct PackEntry {
    pub segment: PackedSegment,
    pub rows: Option<IndexRows>,
}

/// One pack as a listing loaded it.
#[derive(Debug)]
pub(crate) struct Pack {
    pub id: u32,
    /// Length of the pack file.
    pub len: u64,
    /// Every entry, ascending by lane.
    pub entries: Vec<PackEntry>,
    /// `Ok` when the entries came from the pack index, else why it was
    /// declined and the pack scanned.
    pub index: Result<(), FallbackReason>,
}

/// A lane's entry in the newest pack holding it, as its [`LaneFiles`]
/// carry it.
///
/// [`LaneFiles`]: crate::segment::LaneFiles
#[derive(Debug, Clone)]
pub(crate) struct PackedLane {
    pub segment: PackedSegment,
    /// The lane's rows, when the pack index was trusted.
    pub rows: Option<IndexRows>,
    /// Why the pack index was declined, if it was.
    pub index: Result<(), FallbackReason>,
}

impl PackedLane {
    pub(crate) fn of(pack: &Pack, entry: &PackEntry) -> Self {
        PackedLane {
            segment: entry.segment,
            rows: entry.rows.clone(),
            index: pack.index,
        }
    }

    /// The packed segment, unless it holds no frame: a segment of the
    /// lane a reader replays.
    pub(crate) fn with_frames(&self) -> Option<&PackedSegment> {
        Some(&self.segment).filter(|segment| !segment.is_empty())
    }
}

/// Loads pack `pack` of `dir`: its index when `index_listed` and it is
/// trusted (`docs/FORMAT.md` §4), else a scan of the pack.
///
/// # Errors
///
/// [`TraceError::Io`] when the pack cannot be read, and
/// [`TraceError::Decode`] when its index is declined and the pack does
/// not scan.
pub(crate) fn load_pack(dir: &Path, pack: u32, index_listed: bool) -> Result<Pack, TraceError> {
    let path = dir.join(pack_file_name(pack));
    let len = std::fs::metadata(&path)?.len();
    let index = if index_listed {
        match std::fs::read(dir.join(pack_index_file_name(pack))) {
            Ok(bytes) => decode_pack_index(Arc::new(bytes), pack, len),
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
                Err(FallbackReason::Missing)
            }
            Err(_) => Err(FallbackReason::Unreadable),
        }
    } else {
        Err(FallbackReason::Missing)
    };
    let (entries, index) = match index {
        Ok(entries) => (entries, Ok(())),
        Err(reason) => {
            let bytes = std::fs::read(&path)?;
            let entries = scan_pack(&bytes, &path, pack)?
                .into_iter()
                .map(|segment| PackEntry {
                    segment,
                    rows: None,
                })
                .collect();
            (entries, Err(reason))
        }
    };
    Ok(Pack {
        id: pack,
        len,
        entries,
        index,
    })
}

/// Serialises the index of pack `pack`, `pack_len` bytes long, whose
/// entries hold `lanes` — each entry with the rows of its windows — per
/// `docs/FORMAT.md` §4: header, one record per entry, the rows of each
/// entry in turn, and a CRC-32 of everything before it.
pub(crate) fn encode_pack_index(
    pack: u32,
    pack_len: u64,
    lanes: &[(PackedSegment, &[WindowEntry])],
) -> Vec<u8> {
    let mut rows = Vec::new();
    let mut out = Vec::with_capacity(PACK_INDEX_FIXED_LEN + 10 + 16 * lanes.len());
    out.extend_from_slice(PACK_INDEX_MAGIC);
    out.extend_from_slice(&PACK_INDEX_SCHEMA.to_le_bytes());
    out.extend_from_slice(&pack.to_le_bytes());
    out.extend_from_slice(&pack_len.to_le_bytes());
    encode_u64(lanes.len() as u64, &mut out);
    for (segment, windows) in lanes {
        let start = rows.len();
        encode_rows(windows, &mut rows);
        encode_u64(u64::from(segment.lane), &mut out);
        encode_u64(u64::from(segment.seq), &mut out);
        out.push(segment.version);
        encode_u64(segment.body_len, &mut out);
        encode_u64(windows.len() as u64, &mut out);
        encode_u64((rows.len() - start) as u64, &mut out);
    }
    out.extend_from_slice(&rows);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parses the index of pack `pack`, whose file is `pack_len` bytes long,
/// accepting only one that is intact, of this schema and this pack, as
/// long as the pack, and whose entries fill the pack from its header to
/// its end and whose row sections fill the index to its CRC. Every count
/// is checked against the bytes left before anything is reserved; each
/// lane's rows are decoded when the lane is read.
pub(crate) fn decode_pack_index(
    bytes: Arc<Vec<u8>>,
    pack: u32,
    pack_len: u64,
) -> Result<Vec<PackEntry>, FallbackReason> {
    if bytes.len() < PACK_INDEX_FIXED_LEN + 4 || &bytes[..4] != PACK_INDEX_MAGIC {
        return Err(FallbackReason::Unreadable);
    }
    let sealed = bytes.len() - 4;
    if crc32(&bytes[..sealed]) != read_u32(&bytes, sealed) {
        return Err(FallbackReason::BadChecksum);
    }
    if read_u32(&bytes, 4) != PACK_INDEX_SCHEMA {
        return Err(FallbackReason::UnknownSchema);
    }
    if read_u32(&bytes, 8) != pack {
        return Err(FallbackReason::LaneMismatch);
    }
    let claimed_len = u64::from(read_u32(&bytes, 12)) | u64::from(read_u32(&bytes, 16)) << 32;
    if claimed_len != pack_len {
        return Err(FallbackReason::LengthMismatch);
    }
    decode_entries(&bytes, sealed, pack, pack_len).ok_or(FallbackReason::Unreadable)
}

/// The entry records and row sections of a pack index whose sealed bytes
/// end at `sealed`.
fn decode_entries(
    bytes: &Arc<Vec<u8>>,
    sealed: usize,
    pack: u32,
    pack_len: u64,
) -> Option<Vec<PackEntry>> {
    let records = &bytes[..sealed];
    let mut at = PACK_INDEX_FIXED_LEN;
    let count = take_minimal_u64(records, &mut at)?;
    if count > ((sealed - at) / ENTRY_RECORD_MIN_LEN) as u64 {
        return None;
    }
    let mut entries: Vec<PackEntry> = Vec::with_capacity(count as usize);
    let mut claimed_rows = Vec::with_capacity(count as usize);
    let mut pack_at = PACK_HEADER_LEN;
    for _ in 0..count {
        let (lane, seq, version, body_len) = take_entry_header(records, &mut at)?;
        let windows = take_minimal_u64(records, &mut at)?;
        let rows_len = usize::try_from(take_minimal_u64(records, &mut at)?).ok()?;
        if entries.last().is_some_and(|last| last.segment.lane >= lane) {
            return None;
        }
        let body = pack_at.checked_add(entry_header_len(lane, seq, body_len) as u64)?;
        let segment = PackedSegment {
            pack,
            lane,
            seq,
            version,
            entry: pack_at,
            body,
            body_len,
        };
        pack_at = body.checked_add(body_len)?;
        claimed_rows.push((windows, rows_len));
        entries.push(PackEntry {
            segment,
            rows: None,
        });
    }
    if pack_at != pack_len {
        return None;
    }
    for (entry, (windows, rows_len)) in entries.iter_mut().zip(claimed_rows) {
        let end = at.checked_add(rows_len).filter(|&end| end <= sealed)?;
        entry.rows = Some(IndexRows {
            bytes: Arc::clone(bytes),
            range: at..end,
            windows,
        });
        at = end;
    }
    (at == sealed).then_some(entries)
}

/// Atomically writes the index of pack `pack`, a cache (temp file +
/// rename, not synced).
///
/// # Errors
///
/// [`TraceError::Io`] on filesystem failures.
pub(crate) fn write_pack_index(
    dir: &Path,
    pack: u32,
    pack_len: u64,
    lanes: &[(PackedSegment, &[WindowEntry])],
) -> Result<(), TraceError> {
    let bytes = encode_pack_index(pack, pack_len, lanes);
    commit_file(
        dir,
        &pack_index_file_name(pack),
        Durability::Cache,
        |file| file.write_all(&bytes),
    )
}

/// Each lane's newest pack among `packs` and the packs `written`
/// (ascending lanes each) since they were listed: the one its lane reads.
pub(crate) fn newest_packs(packs: &[Pack], written: &[(u32, Vec<u32>)]) -> BTreeMap<u32, u32> {
    let mut newest = BTreeMap::new();
    for pack in packs {
        for entry in &pack.entries {
            newest.insert(entry.segment.lane, pack.id);
        }
    }
    for (pack, lanes) in written {
        for &lane in lanes {
            newest.insert(lane, *pack);
        }
    }
    newest
}

/// Numbers of the packs none of whose entries is in the pack its lane
/// reads, as [`newest_packs`] gives it: nothing reads them any more.
pub(crate) fn dead_packs(packs: &[Pack], newest: &BTreeMap<u32, u32>) -> Vec<u32> {
    packs
        .iter()
        .filter(|pack| {
            !pack
                .entries
                .iter()
                .any(|entry| newest.get(&entry.segment.lane) == Some(&pack.id))
        })
        .map(|pack| pack.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(lane: u32, seq: u32, version: u8, body: &[u8]) -> Vec<u8> {
        let mut bytes = segment_header(lane, seq, version).to_vec();
        bytes.extend_from_slice(body);
        bytes
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("endurance-pack-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn a_pack_scans_back_to_what_was_written() {
        let dir = temp_dir("scan");
        let segments = [
            segment(2, 0, SEGMENT_VERSION_V3, b"abc"),
            segment(7, 300, SEGMENT_VERSION_V4, b""),
            segment(70_000, 5, SEGMENT_VERSION_V3, &[9; 200]),
            segment(u32::MAX, u32::MAX, SEGMENT_VERSION_V3, &[5; 20_000]),
        ];
        let members: Vec<PackMember> = [(2, 0), (7, 300), (70_000, 5), (u32::MAX, u32::MAX)]
            .iter()
            .zip(&segments)
            .map(|(&(lane, seq), segment)| PackMember { lane, seq, segment })
            .collect();
        let written = write_pack(&dir, 3, &members).unwrap();
        let bytes = std::fs::read(dir.join("pack000003.seg")).unwrap();
        assert_eq!(bytes.len() as u64, pack_len(&members));
        let scanned = scan_pack(&bytes, Path::new("p"), 3).unwrap();
        assert_eq!(scanned, written);
        // Entry headers: 1 + 1 + 1 + 1, 1 + 2 + 1 + 1, 3 + 1 + 1 + 2, and
        // one longer than the 13-byte segment header, 5 + 5 + 1 + 3.
        let lens: Vec<u64> = scanned.iter().map(|s| s.body - s.entry).collect();
        assert_eq!(lens, [4, 5, 7, 14]);
        let path = dir.join("pack000003.seg");
        let pack = OpenPack::open(&path, 3).unwrap();
        for (segment, expected) in scanned.iter().zip(&segments) {
            assert_eq!(segment.read_from(&pack, &path).unwrap(), *expected);
            let (_, read) =
                read_segment(&dir, segment.lane, segment.seq, Some(segment), None).unwrap();
            assert_eq!(read, *expected);
        }
        // An entry the pack does not hold where the index says it does.
        let third = scanned[2];
        for wrong in [
            PackedSegment { seq: 6, ..third },
            PackedSegment { lane: 2, ..third },
            PackedSegment {
                body_len: 199,
                ..third
            },
            PackedSegment {
                entry: third.entry + 1,
                ..third
            },
            PackedSegment { entry: 0, ..third },
            PackedSegment {
                body_len: u64::MAX - 10,
                ..third
            },
            PackedSegment {
                body: third.body + 30_000,
                ..third
            },
        ] {
            assert!(matches!(
                wrong.read_from(&pack, &path),
                Err(TraceError::Decode { .. })
            ));
        }
        assert!(OpenPack::open(&path, 4).is_err(), "another number");
        assert!(
            scan_pack(&bytes, Path::new("p"), 4).is_err(),
            "another number"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_pack_index_round_trips_and_is_held_to_its_pack() {
        let dir = temp_dir("index");
        let body = segment(1, 4, SEGMENT_VERSION_V3, &[1; 40]);
        let members = [PackMember {
            lane: 1,
            seq: 4,
            segment: &body,
        }];
        let written = write_pack(&dir, 0, &members).unwrap();
        let len = pack_len(&members);
        let rows = [WindowEntry {
            window_id: 9,
            start_ns: 100,
            end_ns: 200,
            events: 3,
            segment: 4,
            offset: 13,
            len: 35,
            codec: 3,
            raw_len: 60,
        }];
        let bytes = Arc::new(encode_pack_index(0, len, &[(written[0], &rows)]));
        let entries = decode_pack_index(Arc::clone(&bytes), 0, len).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].segment, written[0]);
        assert_eq!(entries[0].rows.as_ref().unwrap().decode().unwrap(), rows);
        assert_eq!(
            decode_pack_index(Arc::clone(&bytes), 0, len + 1).unwrap_err(),
            FallbackReason::LengthMismatch
        );
        assert_eq!(
            decode_pack_index(Arc::clone(&bytes), 1, len).unwrap_err(),
            FallbackReason::LaneMismatch
        );
        for at in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 0x20;
            assert!(
                decode_pack_index(Arc::new(flipped), 0, len).is_err(),
                "flip at {at}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
