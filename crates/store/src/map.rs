//! Buffered, zero-copy access to segment frames.
//!
//! The original read path paid one `open` + `seek` + two `read`s per
//! frame — exactly the per-record syscall pattern that dominates
//! large-scale trace reconstruction. Here each segment file is loaded
//! **once** into a contiguous buffer with a single read, and every frame
//! is handed out as a `&[u8]` slice straight into that buffer — no
//! per-frame allocation, no per-frame syscall. Frame CRCs are validated
//! lazily, on the first touch of each frame, so a windowed seek pays for
//! the windows it reads and a full-lane pass pays each frame exactly
//! once.
//!
//! The loaded buffers live in `Arc`-shared `SegmentData` blocks. A
//! [`SegmentCache`] pools them behind sharded locks and bounds how many
//! stay resident, so every reader, every [`crate::Snapshot`] clone and
//! every lane replay over it hit the *same* bytes (and share each
//! frame's one-time CRC validation) instead of re-reading segment files
//! per consumer. A format-v4 segment's template table is parsed once,
//! when its buffer loads, and handed to the codec of every templated
//! frame in it. A packed segment is a byte range of its pack: the cache
//! holds the pack open and reads each packed lane's segment, in one read
//! of its range, into a buffer of its own — no file to open or `stat` per
//! lane, no copy of the pack beside the segments, and a point query finds
//! the bytes beside the memo of the segment they belong to, as it does a
//! segment file's.
//!
//! A `SegmentMap` is one lane's decode front over the cache: a pin on the
//! buffer it read last and a `FrameDecoder`, the store's one, which the
//! `Tailer` and the compactor's run coder hold too. An identity frame's
//! payload is a zero-copy slice of the segment buffer; any other block is
//! restored by the decoder's one [`BlockCodec`], told the frame's codec
//! id, the window's start and event count (a packed block stores
//! neither), into the decoder's scratch — callers cannot tell the
//! difference. The replay fast path, `FrameDecoder::decode_events_into`,
//! decodes events straight from the block, and the codec holds every
//! frame to the event count its meta claims.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use endurance_obs::{Counter, Registry};
use trace_model::codec::{BlockCodec, CodecId};
use trace_model::{TraceError, TraceEvent};

use crate::index::{FallbackReason, WindowEntry};
use crate::pack::{packed_as, read_segment, OpenPack, PackedSegment};
use crate::segment::{frame_end, Frame, SegmentHead};

/// Segment buffers each shard of a [`SegmentCache`] keeps resident.
///
/// With the default 8 MiB segments this bounds a cache at
/// `CACHE_SHARDS ×` ~32 MiB, however many lanes its readers touch.
const RESIDENT_SEGMENTS: usize = 4;

/// Lock shards of a [`SegmentCache`]: concurrent readers of different
/// segments contend on different mutexes.
const CACHE_SHARDS: usize = 8;

/// Packs a [`SegmentCache`] holds open to read packed segments from.
const OPEN_PACKS: usize = 2;

/// One loaded segment: its full contents — its file's, or, for a packed
/// segment, the header its pack entry stands for and its body — its head
/// (format version
/// and, in v4, template table), and which frame offsets have already
/// been CRC-validated. Shared immutably via `Arc`; the validation memo is
/// a bitset of one bit per byte offset of the segment, so concurrent
/// readers mark and test a frame with one atomic operation each, never a
/// lock.
#[derive(Debug)]
struct SegmentData {
    bytes: Vec<u8>,
    head: SegmentHead,
    /// Bit `offset` is set once the frame at `offset` passed its CRC.
    validated: Box<[AtomicU64]>,
    /// Counts each first-touch CRC check: the loading cache's counter,
    /// a no-op unless that cache is metrics-wired.
    crc_validations: Counter,
}

impl SegmentData {
    /// Whether the buffer holds the whole frame `entry` describes (a row
    /// no frame can match is not worth a reload: reading it reports it).
    fn covers(&self, entry: &WindowEntry) -> bool {
        frame_end(self.head.version, entry).map_or(true, |end| end <= self.bytes.len() as u64)
    }

    /// Locates the frame of `entry` within this segment buffer: length
    /// field checked against the row, CRC validated once, codec and raw
    /// length read from the file.
    fn frame(&self, lane: u32, entry: &WindowEntry) -> Result<Frame, TraceError> {
        // An offset past the buffer has no bit; reading it reports it. A
        // bit is set (`Release`) only after its frame passed the check, so
        // a reader that sees it set (`Acquire`) skips a check that
        // happened; the bytes themselves never change.
        let memo = usize::try_from(entry.offset)
            .ok()
            .and_then(|offset| Some((self.validated.get(offset / 64)?, 1u64 << (offset % 64))));
        let already = memo.is_some_and(|(word, bit)| word.load(Ordering::Acquire) & bit != 0);
        let frame = self.head.frame(&self.bytes, lane, entry, !already)?;
        if !already {
            self.crc_validations.inc();
            if let Some((word, bit)) = memo {
                word.fetch_or(bit, Ordering::Release);
            }
        }
        Ok(frame)
    }
}

/// A process-wide pool of loaded segment buffers, keyed by
/// `(lane, segment)` behind sharded locks.
///
/// Every consumer wired to the same cache — the
/// [`crate::StoreReader`]s opened over it, each [`crate::Snapshot`]
/// clone taken from them and each [`crate::LaneReplay`] — shares the same `Arc`ed `SegmentData` buffers: one disk read
/// and one CRC validation per frame across all of them. Lookups of
/// different segments contend on different shards; holding an `Arc` out
/// of the cache is lock-free reading thereafter.
///
/// Residency is bounded per shard (oldest-loaded evicted first); evicted
/// buffers stay alive for exactly as long as some consumer still holds
/// their `Arc`.
#[derive(Debug)]
pub struct SegmentCache {
    pub(crate) dir: PathBuf,
    shards: Vec<Mutex<CacheShard>>,
    /// Open packs, oldest-opened first.
    packs: Mutex<Vec<(u32, Arc<OpenPack>)>>,
    metrics: CacheMetrics,
}

/// Registry handles for the cache: lookup hits/misses plus the CRC
/// validations performed by the buffers it loads, and the pack indexes
/// its readers declined.
#[derive(Debug, Clone)]
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    crc_validations: Counter,
    /// `store_pack_index_fallbacks_total{reason}`, indexed by
    /// [`FallbackReason`] (in [`FallbackReason::ALL`] order).
    pack_index_fallbacks: Vec<Counter>,
}

impl CacheMetrics {
    fn from_registry(registry: &Registry) -> Self {
        CacheMetrics {
            hits: registry.counter("store_segcache_hits_total"),
            misses: registry.counter("store_segcache_misses_total"),
            crc_validations: registry.counter("store_crc_validations_total"),
            pack_index_fallbacks: FallbackReason::ALL
                .iter()
                .map(|reason| {
                    registry.counter_with(
                        "store_pack_index_fallbacks_total",
                        &[("reason", reason.name())],
                    )
                })
                .collect(),
        }
    }

    fn disabled() -> Self {
        Self::from_registry(&Registry::disabled())
    }
}

/// What a cached buffer is: segment `seq` of `lane`, in its own file or
/// in the numbered pack.
type CacheKey = (u32, u32, Option<u32>);

/// One shard's resident buffers, oldest-loaded first.
type CacheShard = Vec<(CacheKey, Arc<SegmentData>)>;

impl SegmentCache {
    /// An empty cache over the store directory `dir` with the default
    /// residency bound (`CACHE_SHARDS × RESIDENT_SEGMENTS` buffers).
    pub fn new(dir: impl AsRef<Path>) -> Self {
        SegmentCache {
            dir: dir.as_ref().to_path_buf(),
            shards: (0..CACHE_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            packs: Mutex::new(Vec::new()),
            metrics: CacheMetrics::disabled(),
        }
    }

    /// Publishes the cache's lookup and CRC-validation counters into
    /// `registry` (`store_segcache_hits_total`,
    /// `store_segcache_misses_total`, `store_crc_validations_total`), and
    /// the pack indexes the readers opened over it declined
    /// (`store_pack_index_fallbacks_total{reason}`). Call before the cache
    /// is shared; a stale-buffer re-read counts as a miss, since it pays
    /// the same disk read a cold miss would, and so does a packed
    /// segment's read from its pack.
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = CacheMetrics::from_registry(registry);
        self
    }

    /// Counts a pack index a reader over this cache declined.
    pub(crate) fn count_pack_index_fallback(&self, reason: FallbackReason) {
        self.metrics.pack_index_fallbacks[reason as usize].inc();
    }

    fn shard(&self, (lane, seq, _): CacheKey) -> &Mutex<CacheShard> {
        // Spread consecutive segments of one lane across shards.
        let key = (u64::from(lane) << 32) | u64::from(seq);
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 32) as usize % self.shards.len()]
    }

    /// Returns the loaded buffer for the segment of `entry`, reading the
    /// file on a miss — and *re*-reading it when the cached copy ends
    /// before the frame does (an actively-appended segment legitimately
    /// grows after it was first cached; a fresh read observes the newer
    /// frames). The lane's `packed` segment is read from its pack, held
    /// open, and never grows.
    fn get_covering(
        &self,
        lane: u32,
        entry: &WindowEntry,
        packed: Option<&PackedSegment>,
    ) -> Result<Arc<SegmentData>, TraceError> {
        let packed = packed_as(packed, entry.segment);
        let key = (lane, entry.segment, packed.map(|packed| packed.pack));
        // A list of `Arc`s is whole whoever panicked holding it.
        let shard = || {
            self.shard(key)
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        };
        if let Some((_, data)) = shard().iter().find(|(k, _)| *k == key) {
            if packed.is_some() || data.covers(entry) {
                self.metrics.hits.inc();
                return Ok(Arc::clone(data));
            }
        }
        // Load outside the lock: a slow disk read must not serialize
        // unrelated segments in the same shard. A racing double-load is
        // benign (last insert wins; both copies are valid snapshots).
        self.metrics.misses.inc();
        let pack = packed.map(|packed| self.pack(packed)).transpose()?;
        let (path, bytes) = read_segment(&self.dir, lane, entry.segment, packed, pack.as_deref())?;
        let head = SegmentHead::parse(&bytes, &path, lane, entry.segment)?;
        let data = Arc::new(SegmentData {
            validated: (0..bytes.len().div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            bytes,
            head,
            crc_validations: self.metrics.crc_validations.clone(),
        });
        let mut resident = shard();
        resident.retain(|(k, _)| *k != key);
        while resident.len() >= RESIDENT_SEGMENTS {
            resident.remove(0);
        }
        resident.push((key, Arc::clone(&data)));
        Ok(data)
    }

    /// The pack holding `packed`, held open: opened and its header
    /// checked on the first read from it.
    fn pack(&self, packed: &PackedSegment) -> Result<Arc<OpenPack>, TraceError> {
        let packs = || self.packs.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, open)) = packs().iter().find(|(id, _)| *id == packed.pack) {
            return Ok(Arc::clone(open));
        }
        let open = Arc::new(OpenPack::open(&packed.path(&self.dir), packed.pack)?);
        let mut held = packs();
        held.retain(|(id, _)| *id != packed.pack);
        while held.len() >= OPEN_PACKS {
            held.remove(0);
        }
        held.push((packed.pack, Arc::clone(&open)));
        Ok(open)
    }
}

/// The decode front of one lane: a frame decoder and a pin on the
/// segment buffer it read last, over a shared [`SegmentCache`].
///
/// Frames are addressed by the [`WindowEntry`] rows of the lane index
/// (see [`crate::StoreReader::lane_windows`]); [`SegmentMap::payload`]
/// returns the window's original payload bytes — zero-copy for
/// uncompressed frames, decoded into the decoder's scratch buffer for
/// compressed ones. Consecutive frames of one segment reuse the pinned
/// buffer; any other segment comes from the cache, which bounds residency.
///
/// The map validates lazily but *completely*: a frame's length and CRC
/// are checked the first time it is touched, and a mismatch surfaces as
/// [`TraceError::Decode`].
#[derive(Debug)]
pub(crate) struct SegmentMap {
    cache: Arc<SegmentCache>,
    lane: u32,
    /// The lane's segment in the newest pack holding it.
    packed: Option<PackedSegment>,
    /// The buffer read last and its segment number.
    pinned: Option<(u32, Arc<SegmentData>)>,
    decoder: FrameDecoder,
}

impl SegmentMap {
    /// A front over `lane`, whose segment `packed` (if any) lies in a
    /// pack, and whose segment buffers come from the shared `cache`.
    /// Nothing is read until a frame is touched.
    pub(crate) fn shared(
        cache: Arc<SegmentCache>,
        lane: u32,
        packed: Option<PackedSegment>,
    ) -> Self {
        SegmentMap {
            cache,
            lane,
            packed,
            pinned: None,
            decoder: FrameDecoder::default(),
        }
    }

    /// The buffer of `entry`'s segment, pinned — the pinned one when it is
    /// that segment and holds the whole frame (an actively-appended
    /// segment grows between touches), else the cache's — its frame, its
    /// length and CRC checked on its first touch, and the decoder.
    fn frame(
        &mut self,
        entry: &WindowEntry,
    ) -> Result<(&SegmentData, Frame, &mut FrameDecoder), TraceError> {
        let data = match self.pinned.take() {
            Some((seq, data)) if seq == entry.segment && data.covers(entry) => data,
            _ => self
                .cache
                .get_covering(self.lane, entry, self.packed.as_ref())?,
        };
        let segment = &self.pinned.insert((entry.segment, data)).1;
        Ok((segment, segment.frame(self.lane, entry)?, &mut self.decoder))
    }

    /// The original payload of one indexed window (the exact bytes the
    /// recorder handed to the sink), through [`FrameDecoder::payload`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the segment file cannot be read,
    /// [`TraceError::Decode`] on index/file disagreement (truncated
    /// file, length mismatch, CRC mismatch), and block decode errors for
    /// compressed frames.
    pub(crate) fn payload(&mut self, entry: &WindowEntry) -> Result<&[u8], TraceError> {
        let (segment, frame, decoder) = self.frame(entry)?;
        decoder.payload(&segment.head, &segment.bytes, &frame, entry.start_ns)
    }

    /// Decodes the events of one indexed window straight into `out`,
    /// returning how many were appended — the replay fast path, through
    /// [`FrameDecoder::decode_events_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SegmentMap::payload`], plus payload decode
    /// errors, and [`TraceError::Decode`] for a frame whose block holds
    /// another number of events than its meta claims.
    pub(crate) fn decode_events_into(
        &mut self,
        entry: &WindowEntry,
        out: &mut Vec<TraceEvent>,
    ) -> Result<usize, TraceError> {
        let (segment, frame, decoder) = self.frame(entry)?;
        decoder.decode_events_into(&segment.head, &segment.bytes, &frame, entry.start_ns, out)
    }
}

/// The one frame decoder of the store — the reader's decode front, the
/// `Tailer` and the compactor's run coder each hold one: one
/// [`BlockCodec`], which decodes a block of any codec id, and a payload
/// scratch buffer reused across frames. An identity frame's block is its
/// payload, read in place; any other block is restored by the codec, told
/// the frame's id, the window's start, the event count the frame claims
/// and its segment's template table (a packed or templated block stores
/// none of them).
#[derive(Debug, Default)]
pub(crate) struct FrameDecoder {
    codec: BlockCodec,
    scratch: Vec<u8>,
}

impl FrameDecoder {
    /// The payload of `frame`, read from the segment `bytes` whose head is
    /// `head`, of the window that starts at `start_ns`: a slice of
    /// `bytes` for an identity frame (whose length the segment's parse
    /// held to its raw length), else restored into the scratch.
    ///
    /// # Errors
    ///
    /// Block decode errors for compressed frames.
    pub(crate) fn payload<'a>(
        &'a mut self,
        head: &SegmentHead,
        bytes: &'a [u8],
        frame: &Frame,
        start_ns: u64,
    ) -> Result<&'a [u8], TraceError> {
        let block = &bytes[frame.block.clone()];
        if frame.codec == CodecId::Identity {
            return Ok(block);
        }
        self.scratch.clear();
        self.codec.restore_block(
            frame.codec,
            head.context(frame, start_ns),
            block,
            frame.raw_len as usize,
            &mut self.scratch,
        )?;
        Ok(&self.scratch)
    }

    /// Decodes the events of `frame` (as [`FrameDecoder::payload`] finds
    /// it) straight into `out`, returning how many were appended: the
    /// codec decodes events from the stored block without materialising
    /// the payload, and holds every frame to the event count its meta
    /// claims.
    ///
    /// # Errors
    ///
    /// As [`FrameDecoder::payload`], plus payload decode errors, and
    /// [`TraceError::Decode`] for a frame whose block holds another number
    /// of events than its meta claims.
    pub(crate) fn decode_events_into(
        &mut self,
        head: &SegmentHead,
        bytes: &[u8],
        frame: &Frame,
        start_ns: u64,
        out: &mut Vec<TraceEvent>,
    ) -> Result<usize, TraceError> {
        self.codec.decode_block(
            frame.codec,
            head.context(frame, start_ns),
            &bytes[frame.block.clone()],
            frame.raw_len as usize,
            &mut self.scratch,
            out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{FRAME_META_LEN, SEGMENT_HEADER_LEN};
    use crate::{LaneWriter, StoreConfig, StoreReader};
    use endurance_obs::Registry;
    use trace_model::codec::{BinaryEncoder, TraceEncoder};
    use trace_model::{EventSink, EventTypeId, RecordMeta, Timestamp, TraceEvent, WindowId};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("endurance-map-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn write_windows(dir: &std::path::Path, windows: u64, per_segment: u64) -> Vec<Vec<u8>> {
        let config = StoreConfig::default().with_segment_max_windows(per_segment);
        let mut writer = LaneWriter::create(dir, 0, config).unwrap();
        let mut payloads = Vec::new();
        for id in 0..windows {
            let events: Vec<TraceEvent> = (0..6)
                .map(|i| {
                    TraceEvent::new(
                        Timestamp::from_micros(id * 1_000 + i * 10),
                        EventTypeId::new((i % 3) as u16),
                        id as u32,
                    )
                })
                .collect();
            let mut encoded = Vec::new();
            BinaryEncoder::new().encode(&events, &mut encoded).unwrap();
            let meta = RecordMeta {
                window_id: WindowId::new(id),
                start: Timestamp::from_micros(id * 1_000),
                end: Timestamp::from_micros((id + 1) * 1_000),
            };
            writer.record_window(&meta, &events, &encoded).unwrap();
            payloads.push(encoded);
        }
        writer.close().unwrap();
        payloads
    }

    /// A front over lane 0 of `dir` through a cache of its own.
    fn front(dir: &std::path::Path) -> SegmentMap {
        SegmentMap::shared(Arc::new(SegmentCache::new(dir)), 0, None)
    }

    #[test]
    fn compressed_frames_restore_the_same_payload_bytes() {
        let dir = temp_dir("codec");
        let payloads = write_windows(&dir, 10, 3);
        let policy = crate::MaintenancePolicy::disabled().with_recompress(CodecId::DeltaVarint);
        crate::Compactor::new(&dir, policy).compact().unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        let entries: Vec<WindowEntry> = reader.lane_windows(0).unwrap().to_vec();
        // Six events a window: packed rows beat both `EDV` and the payload.
        assert!(entries
            .iter()
            .all(|entry| entry.codec == CodecId::Packed.as_u8()));
        let mut map = front(&dir);
        for (entry, expected) in entries.iter().zip(&payloads) {
            assert_eq!(map.payload(entry).unwrap(), expected.as_slice());
            let mut events = Vec::new();
            map.decode_events_into(entry, &mut events).unwrap();
            assert_eq!(events.len(), entry.events as usize);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_frames_fail_on_first_touch() {
        let dir = temp_dir("corrupt");
        write_windows(&dir, 2, 10);
        let reader = StoreReader::open(&dir).unwrap();
        let entries: Vec<WindowEntry> = reader.lane_windows(0).unwrap().to_vec();
        // Flip a payload byte of the second frame.
        let path = dir.join("lane0000-000000.seg");
        let mut bytes = std::fs::read(&path).unwrap();
        let hit = entries[1].offset as usize + 8 + FRAME_META_LEN + 1;
        bytes[hit] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();

        let mut map = front(&dir);
        // The intact frame is fine; the corrupt one errors with a CRC
        // mismatch on first touch.
        assert!(map.payload(&entries[0]).is_ok());
        let error = map.payload(&entries[1]).unwrap_err();
        assert!(error.to_string().contains("crc mismatch"), "{error}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Readers sharing one cache share each frame's first-touch CRC
    /// check through the atomic memo: every frame is checked at least
    /// once whoever touches it first, and a corrupt one fails every
    /// reader that touches it — a failed check marks nothing.
    #[test]
    fn concurrent_readers_check_every_frame_they_touch() {
        let dir = temp_dir("concurrent-memo");
        let payloads = write_windows(&dir, 24, 8); // 3 segments
        let reader = StoreReader::open(&dir).unwrap();
        let entries: Vec<WindowEntry> = reader.lane_windows(0).unwrap().to_vec();
        // Flip a payload byte of the sixth frame.
        let path = dir.join("lane0000-000000.seg");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[entries[5].offset as usize + 8 + FRAME_META_LEN + 1] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();

        let registry = Registry::new();
        let cache = Arc::new(SegmentCache::new(&dir).with_metrics(&registry));
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for reader in 0..4 {
                let (cache, entries, payloads) = (Arc::clone(&cache), &entries, &payloads);
                let start = &start;
                scope.spawn(move || {
                    let mut map = SegmentMap::shared(cache, 0, None);
                    start.wait();
                    // Each reader walks the lane from another frame on.
                    for at in (0..entries.len()).map(|at| (at + reader * 5) % entries.len()) {
                        match map.payload(&entries[at]) {
                            Ok(payload) => assert_eq!(payload, payloads[at].as_slice()),
                            Err(error) => {
                                assert_eq!(at, 5);
                                assert!(error.to_string().contains("crc mismatch"), "{error}");
                            }
                        }
                    }
                });
            }
        });
        let validations = registry.snapshot().counter("store_crc_validations_total");
        let checked = validations.unwrap();
        // The 23 good frames at least once; a check that fails is not
        // counted (it is the read's error).
        assert!((23..=23 * 4).contains(&checked), "{checked}");
        // Touched again, a good frame is not checked again; the bad one
        // is, and fails again.
        let mut map = SegmentMap::shared(Arc::clone(&cache), 0, None);
        for (at, entry) in entries.iter().enumerate() {
            assert_eq!(map.payload(entry).is_err(), at == 5);
        }
        let again = registry.snapshot().counter("store_crc_validations_total");
        assert_eq!(again, Some(checked));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_header_is_rejected_at_load() {
        let dir = temp_dir("header");
        write_windows(&dir, 1, 10);
        let path = dir.join("lane0000-000000.seg");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X'; // break the magic
        std::fs::write(&path, bytes).unwrap();
        let entry = WindowEntry {
            window_id: 0,
            start_ns: 0,
            end_ns: 1,
            events: 1,
            segment: 0,
            offset: SEGMENT_HEADER_LEN,
            len: FRAME_META_LEN as u32 + 1,
            codec: 0,
            raw_len: 1,
        };
        let mut map = front(&dir);
        assert!(map.payload(&entry).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_maps_hit_the_same_cached_buffers() {
        let dir = temp_dir("shared");
        let payloads = write_windows(&dir, 8, 2); // 4 segments
        let reader = StoreReader::open(&dir).unwrap();
        let entries: Vec<WindowEntry> = reader.lane_windows(0).unwrap().to_vec();
        let registry = Registry::new();
        let cache = Arc::new(SegmentCache::new(&dir).with_metrics(&registry));
        let counter = |name| registry.snapshot().counter(name).unwrap_or(0);
        let mut first = SegmentMap::shared(Arc::clone(&cache), 0, None);
        for (entry, expected) in entries.iter().zip(&payloads) {
            assert_eq!(first.payload(entry).unwrap(), expected.as_slice());
        }
        // One read per segment; a segment's second frame reads the pin.
        assert_eq!(counter("store_segcache_misses_total"), 4);
        assert_eq!(counter("store_crc_validations_total"), 8);
        // A second map over the same cache re-reads nothing and checks
        // nothing again: the buffers (and their validation memos) are
        // the same Arcs.
        let hits = counter("store_segcache_hits_total");
        let mut second = SegmentMap::shared(Arc::clone(&cache), 0, None);
        for (entry, expected) in entries.iter().zip(&payloads) {
            assert_eq!(second.payload(entry).unwrap(), expected.as_slice());
        }
        assert_eq!(counter("store_segcache_hits_total"), hits + 4);
        assert_eq!(counter("store_segcache_misses_total"), 4);
        assert_eq!(counter("store_crc_validations_total"), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_cached_buffers_reload_when_the_segment_grew() {
        let dir = temp_dir("grow");
        let config = StoreConfig::default();
        let mut writer = LaneWriter::create(&dir, 0, config).unwrap();
        let events = vec![TraceEvent::new(
            Timestamp::from_micros(1),
            EventTypeId::new(0),
            1,
        )];
        let mut encoded = Vec::new();
        BinaryEncoder::new().encode(&events, &mut encoded).unwrap();
        let meta = |id: u64| RecordMeta {
            window_id: WindowId::new(id),
            start: Timestamp::from_micros(id),
            end: Timestamp::from_micros(id + 1),
        };
        writer.record_window(&meta(0), &events, &encoded).unwrap();

        // Cache the segment while only the first frame exists...
        let cache = Arc::new(SegmentCache::new(&dir));
        let mut map = SegmentMap::shared(Arc::clone(&cache), 0, None);
        let first = crate::index::WindowEntry {
            window_id: 0,
            start_ns: 0,
            end_ns: 1_000,
            events: 1,
            segment: 0,
            offset: SEGMENT_HEADER_LEN,
            len: FRAME_META_LEN as u32 + encoded.len() as u32,
            codec: 0,
            raw_len: encoded.len() as u32,
        };
        assert_eq!(map.payload(&first).unwrap(), encoded.as_slice());

        // ...then append a second frame and address it through the same
        // cache: the stale buffer is transparently re-read.
        writer.record_window(&meta(1), &events, &encoded).unwrap();
        writer.close().unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        let second = reader.lane_windows(0).unwrap()[1];
        assert_eq!(map.payload(&second).unwrap(), encoded.as_slice());
        std::fs::remove_dir_all(&dir).ok();
    }
}
