//! Background segment compaction and retention.
//!
//! A long endurance run accumulates many small segments (bursty anomaly
//! recording rotates often and leaves runts), and reopen/replay costs
//! grow with the file count rather than the data volume. The
//! [`Compactor`] is the maintenance pass that keeps those costs flat:
//!
//! * **Merging** — runs of adjacent small segments (below
//!   [`MaintenancePolicy::small_segment_bytes`]) are rewritten into one
//!   consolidated segment. Stored blocks are copied verbatim (CRC
//!   re-verified during the copy; whole frames verbatim between v1
//!   segments) — but for templated blocks, which name their own
//!   segment's template table and are decoded against it and coded
//!   again — so replay of a compacted store is byte-for-byte identical
//!   to replay of the uncompacted store.
//! * **Retention** — windows whose end falls a configurable horizon
//!   behind the lane's newest window are dropped, the discipline that
//!   keeps week-long log volumes flat.
//! * **Atomicity** — each consolidated segment is written to a temp file,
//!   fsynced and renamed into place; the sidecar index is rewritten the
//!   same way. A reader that opened before the pass keeps reading its
//!   loaded buffers; a reader opening mid-pass sees either the old or the
//!   new layout of each file, never a torn one, and falls back to the
//!   CRC scanner when the sidecar disagrees.
//! * **Torn tails** — committed-but-torn bytes left by a crash are
//!   truncated, so a compacted store reopens clean.
//! * **Packs** — a pass that rewrites two or more lanes into a single
//!   segment each writes them, in ascending lane order and greedily up to
//!   [`MaintenancePolicy::max_merged_bytes`], into one pack file
//!   (`docs/FORMAT.md` §2.4) with one pack index, instead of a segment
//!   file and a sidecar per lane. The pack's rename commits it; the
//!   packed lanes' own files are deleted after it, and a crash between
//!   the two leaves files that the pack supersedes and every reader
//!   ignores. A lane whose packed segment a later pass rewrites is
//!   rewritten into a newer pack, which supersedes its entry in the older
//!   one; a pack none of whose entries is its lane's newest is deleted.
//!
//! The [`Compactor`] is the one thing that rewrites a lane, and it runs
//! on lanes no writer holds: a live lane is append-only, so whatever a
//! [`crate::LaneWriter`] has committed stays byte for byte where its
//! followers saw it for as long as that writer lives (`docs/FORMAT.md`
//! §6). Close (or lose) the writer, run the pass, resume.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use endurance_obs::{Counter, Gauge, Histogram, Registry};

use crate::crc32::crc32;
use crate::index::{LaneIndex, SegmentMeta, SidecarKind, WindowEntry};
use crate::map::FrameDecoder;
use crate::pack::{
    dead_packs, newest_packs, pack_len, read_segment, read_small_segment, write_pack,
    write_pack_index, Pack, PackMember, PackedSegment, PACK_HEADER_LEN,
};
use crate::reader::{load_lane, scan_lane, truncate_torn};
use crate::segment::{
    commit_file, encode_frame, envelope_and_stored_bytes, frame_len, legacy_sidecar_file_name,
    list_store_dir, manifest_file_name, pack_file_name, pack_index_file_name, put_table_section,
    remove_if_present, scan_segment, segment_file_name, segment_header, sidecar_file_name,
    table_section_len, write_sidecar, Durability, FramePrev, LaneFiles, SegmentHead, StoreListing,
    SEGMENT_HEADER_LEN, SEGMENT_VERSION_V1, SEGMENT_VERSION_V3, SEGMENT_VERSION_V4,
};
use trace_model::codec::{CodecId, FrameContext, SegmentCoder};
use trace_model::TraceError;

/// When (and how aggressively) a store lane is compacted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaintenancePolicy {
    /// Closed segments smaller than this are merge candidates; a run of
    /// at least two adjacent candidates is consolidated into one
    /// segment. Zero disables merging.
    pub small_segment_bytes: u64,
    /// Retention horizon in nanoseconds of trace time: windows whose end
    /// is at least this far behind the lane's newest window end are
    /// dropped. `None` keeps every window.
    pub retention_ns: Option<u64>,
    /// Upper bound on a consolidated segment: a run of small segments is
    /// merged in chunks whose summed committed bytes stay at or under
    /// this, which also bounds the pass's memory: the chunk is buffered
    /// while its journal entry is prepared, and no worker takes another
    /// lane while the runs coded ahead of a slower lane, waiting for it to
    /// be packed in lane order, hold more than this. Segments at or above
    /// `min(small_segment_bytes, max_merged_bytes)` are never merge
    /// candidates, so repeated passes converge instead of rewriting the
    /// whole lane each time.
    pub max_merged_bytes: u64,
    /// Re-encode format-v1 segments while compacting. `None` copies
    /// frames verbatim (the default). A pass with a target codec rewrites
    /// every v1 segment it visits into a format-v3 segment; under any
    /// target but `Identity`, which keeps every payload verbatim, it
    /// stores each frame as the smallest of its `EDV` block, packed rows
    /// and the payload ([`trace_model::codec::BlockChooser`]) — or, in a
    /// format-v4 segment whose template table pays for itself, templated
    /// rows ([`trace_model::codec::SegmentCoder`]) — so a store written
    /// before compression existed shrinks in place; v2, v3 and v4
    /// segments are left alone, which keeps repeated passes convergent.
    #[serde(default)]
    pub recompress: Option<CodecId>,
    /// Workers for the standalone multi-lane pass
    /// ([`Compactor::compact`]): lanes are compacted concurrently on up
    /// to this many threads, the caller's among them, so `1` spawns none
    /// (each lane is still one sequential job, so
    /// the per-lane journal/rename crash protocol is untouched). `0` —
    /// the default — auto-sizes to `min(lanes, available_parallelism)`.
    /// Single-lane passes ([`Compactor::compact_lane`]) ignore this knob.
    #[serde(default)]
    pub compact_workers: usize,
}

impl Default for MaintenancePolicy {
    /// Maintenance is **off** by default; a plain store behaves exactly
    /// as an append-only log.
    fn default() -> Self {
        MaintenancePolicy::disabled()
    }
}

impl MaintenancePolicy {
    /// Default size cap for consolidated segments (matches the default
    /// rotation size).
    pub const DEFAULT_MAX_MERGED_BYTES: u64 = 8 * 1024 * 1024;

    /// No merging, no retention, no recompression: the pass is a no-op.
    pub fn disabled() -> Self {
        MaintenancePolicy {
            small_segment_bytes: 0,
            retention_ns: None,
            max_merged_bytes: Self::DEFAULT_MAX_MERGED_BYTES,
            recompress: None,
            compact_workers: 0,
        }
    }

    /// Merge runs of adjacent segments smaller than `bytes` (a quarter of
    /// the rotation size is a reasonable threshold).
    pub fn merge_below(bytes: u64) -> Self {
        MaintenancePolicy {
            small_segment_bytes: bytes,
            ..Self::disabled()
        }
    }

    /// Returns the policy with a different consolidated-segment size cap
    /// (clamped to at least one frame's worth of room, 4 KiB).
    pub fn with_max_merged_bytes(mut self, bytes: u64) -> Self {
        self.max_merged_bytes = bytes.max(4 * 1024);
        self
    }

    /// Returns the policy with a retention horizon: windows ending at
    /// least `nanos` of trace time behind the lane's newest window are
    /// dropped by the next pass.
    pub fn with_retention_ns(mut self, nanos: u64) -> Self {
        self.retention_ns = Some(nanos);
        self
    }

    /// Returns the policy with a recompression target: the next pass
    /// re-encodes every format-v1 segment, storing each frame as its
    /// smallest block, or verbatim when `codec` is `Identity` (see
    /// [`MaintenancePolicy::recompress`]).
    pub fn with_recompress(mut self, codec: CodecId) -> Self {
        self.recompress = Some(codec);
        self
    }

    /// Returns the policy with an explicit worker count for the
    /// standalone multi-lane pass (`0` restores the auto default, see
    /// [`MaintenancePolicy::compact_workers`]).
    pub fn with_compact_workers(mut self, workers: usize) -> Self {
        self.compact_workers = workers;
        self
    }

    /// Whether the pass can do anything at all.
    pub fn is_enabled(&self) -> bool {
        self.small_segment_bytes > 0 || self.retention_ns.is_some() || self.recompress.is_some()
    }
}

/// What compacting one lane changed.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneCompaction {
    /// The lane the pass ran over.
    pub lane: u32,
    /// Segment files before the pass.
    pub segments_before: usize,
    /// Segment files after the pass.
    pub segments_after: usize,
    /// Runs of adjacent segments consolidated into one.
    pub merged_runs: usize,
    /// Windows dropped by the retention horizon.
    pub windows_dropped: u64,
    /// Events contained in the dropped windows.
    pub events_dropped: u64,
    /// Torn tail bytes truncated (crash leftovers).
    pub torn_bytes_truncated: u64,
    /// Committed bytes on disk before the pass.
    pub bytes_before: u64,
    /// Committed bytes on disk after the pass.
    pub bytes_after: u64,
    /// Frames the pass re-encoded under the policy's recompression
    /// target, by the codec each was stored under, indexed by codec id
    /// ([`CodecId::as_u8`]); under identity when no block beat the payload.
    /// The templated blocks a merge or retention rewrite codes anew are
    /// not counted: a pass without a target counts nothing here.
    #[serde(default)]
    pub frames_by_codec: [u64; CodecId::ALL.len()],
    /// Raw (uncompressed) payload bytes of every window surviving the
    /// pass.
    #[serde(default)]
    pub payload_bytes: u64,
    /// Stored payload bytes of every window surviving the pass — what
    /// those payloads occupy on disk under their frame codecs.
    #[serde(default)]
    pub stored_bytes: u64,
    /// Frame header and meta bytes — everything on disk that is neither
    /// segment header nor stored block — before the pass.
    #[serde(default)]
    pub envelope_bytes_before: u64,
    /// Frame header and meta bytes after the pass.
    #[serde(default)]
    pub envelope_bytes_after: u64,
    /// Segment files the pass wrote (each replacing one or more).
    #[serde(default)]
    pub segments_rewritten: usize,
}

impl LaneCompaction {
    /// Bytes the pass gave back to the filesystem (segment headers of
    /// merged runts, dropped windows, truncated tails, recompressed
    /// payloads, leaner frame envelopes); 0 for a pass that grew the
    /// lane, which [`LaneCompaction::grown_bytes`] reports.
    pub fn reclaimed_bytes(&self) -> u64 {
        (self.bytes_before + self.torn_bytes_truncated).saturating_sub(self.bytes_after)
    }

    /// Bytes the pass *added* to the lane. Re-framing as v3 shrinks
    /// every frame that resembles its predecessor, so on recorded windows
    /// this reads 0 and anything else says a pass is doing harm (v1 → v2
    /// re-framing once grew every lane of tiny windows, silently).
    pub fn grown_bytes(&self) -> u64 {
        self.bytes_after
            .saturating_sub(self.bytes_before + self.torn_bytes_truncated)
    }

    /// Frames the pass re-encoded under the policy's recompression target
    /// into a block other than the payload (see
    /// [`LaneCompaction::frames_by_codec`]).
    pub fn recompressed_windows(&self) -> u64 {
        self.frames_by_codec[1..].iter().sum()
    }

    /// Raw payload bytes over stored payload bytes after the pass: 1.0
    /// for an uncompressed lane, above it once frames are re-encoded.
    /// `None` for an empty lane.
    pub fn compression_ratio(&self) -> Option<f64> {
        (self.stored_bytes > 0).then(|| self.payload_bytes as f64 / self.stored_bytes as f64)
    }

    /// Whether the pass changed anything: no segment file written or
    /// deleted, no torn tail truncated.
    pub fn is_noop(&self) -> bool {
        self.segments_rewritten == 0
            && self.segments_after == self.segments_before
            && self.windows_dropped == 0
            && self.torn_bytes_truncated == 0
    }
}

/// What one compaction pass over a store directory changed.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompactionReport {
    /// Per-lane outcomes, ascending by lane.
    pub lanes: Vec<LaneCompaction>,
    /// Pack files the pass wrote.
    #[serde(default)]
    pub packs_written: u64,
    /// Lanes whose rewritten segment the pass wrote into a pack.
    #[serde(default)]
    pub lanes_packed: u64,
    /// Lanes the pass read once: a small format-v1 lane that a
    /// recompressing pass rewrites is read whole and indexed by a scan,
    /// its sidecar never read (`docs/FORMAT.md` §5).
    #[serde(default)]
    pub lanes_read_once: u64,
    /// Bytes of the pack entries the pass left superseded in packs it kept:
    /// a lane rewritten out of a pack leaves its old entry there until
    /// every lane of that pack has moved on and the pack is deleted.
    #[serde(default)]
    pub pack_dead_bytes: u64,
}

impl CompactionReport {
    /// Total bytes reclaimed across every lane.
    pub fn reclaimed_bytes(&self) -> u64 {
        self.lanes.iter().map(LaneCompaction::reclaimed_bytes).sum()
    }

    /// Total bytes added across every lane that a pass grew (see
    /// [`LaneCompaction::grown_bytes`]).
    pub fn grown_bytes(&self) -> u64 {
        self.lanes.iter().map(LaneCompaction::grown_bytes).sum()
    }

    /// Total frame header and meta bytes across every lane, before and
    /// after the pass.
    pub fn envelope_bytes(&self) -> (u64, u64) {
        let total = |of: fn(&LaneCompaction) -> u64| self.lanes.iter().map(of).sum();
        (
            total(|lane| lane.envelope_bytes_before),
            total(|lane| lane.envelope_bytes_after),
        )
    }

    /// Total windows dropped by retention across every lane.
    pub fn windows_dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.windows_dropped).sum()
    }

    /// Total runs of adjacent segments merged across every lane.
    pub fn merged_runs(&self) -> usize {
        self.lanes.iter().map(|l| l.merged_runs).sum()
    }

    /// Total frames re-encoded into a block other than the payload
    /// (see [`LaneCompaction::recompressed_windows`]).
    pub fn recompressed_windows(&self) -> u64 {
        self.lanes
            .iter()
            .map(LaneCompaction::recompressed_windows)
            .sum()
    }

    /// Total frames re-encoded under the recompression target, by the
    /// codec each was stored under (see
    /// [`LaneCompaction::frames_by_codec`]).
    pub fn frames_by_codec(&self) -> [u64; CodecId::ALL.len()] {
        let mut total = [0; CodecId::ALL.len()];
        for lane in &self.lanes {
            for (sum, frames) in total.iter_mut().zip(lane.frames_by_codec) {
                *sum += frames;
            }
        }
        total
    }

    /// Store-wide raw payload bytes over stored payload bytes after the
    /// pass (`None` for an empty store).
    pub fn compression_ratio(&self) -> Option<f64> {
        let stored: u64 = self.lanes.iter().map(|l| l.stored_bytes).sum();
        let payload: u64 = self.lanes.iter().map(|l| l.payload_bytes).sum();
        (stored > 0).then(|| payload as f64 / stored as f64)
    }

    /// Whether the pass changed nothing anywhere.
    pub fn is_noop(&self) -> bool {
        self.lanes.iter().all(LaneCompaction::is_noop)
    }
}

impl std::fmt::Display for CompactionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (envelope_before, envelope_after) = self.envelope_bytes();
        let by_codec: Vec<String> = CodecId::ALL
            .iter()
            .zip(self.frames_by_codec())
            .filter(|(codec, frames)| **codec != CodecId::Identity && *frames > 0)
            .map(|(codec, frames)| format!("{codec} {frames}"))
            .collect();
        let by_codec = if by_codec.is_empty() {
            String::new()
        } else {
            format!(" ({})", by_codec.join(", "))
        };
        writeln!(
            f,
            "compaction report: {} lane(s), {} read once, {} run(s) merged, {} lane(s) packed \
             into {} pack(s), {} dead pack byte(s), {} window(s) dropped, {} window(s) \
             recompressed{by_codec}, {} byte(s) reclaimed, {} byte(s) grown, envelope {} -> {} \
             byte(s), compression {:.2}x",
            self.lanes.len(),
            self.lanes_read_once,
            self.merged_runs(),
            self.lanes_packed,
            self.packs_written,
            self.pack_dead_bytes,
            self.windows_dropped(),
            self.recompressed_windows(),
            self.reclaimed_bytes(),
            self.grown_bytes(),
            envelope_before,
            envelope_after,
            self.compression_ratio().unwrap_or(1.0)
        )?;
        for lane in &self.lanes {
            writeln!(
                f,
                "  lane {}: {} -> {} segment(s), {} -> {} byte(s) (envelope {} -> {}), \
                 {} window(s) dropped",
                lane.lane,
                lane.segments_before,
                lane.segments_after,
                lane.bytes_before,
                lane.bytes_after,
                lane.envelope_bytes_before,
                lane.envelope_bytes_after,
                lane.windows_dropped
            )?;
        }
        Ok(())
    }
}

/// The standalone compaction pass over a (closed) store directory.
///
/// ```rust,no_run
/// use endurance_store::{Compactor, MaintenancePolicy};
/// # fn main() -> Result<(), trace_model::TraceError> {
/// let policy = MaintenancePolicy::merge_below(2 * 1024 * 1024)
///     .with_retention_ns(24 * 3_600 * 1_000_000_000); // keep the last day
/// let report = Compactor::new("/var/run/endurance-store", policy).compact()?;
/// println!("{report}");
/// # Ok(())
/// # }
/// ```
///
/// Run it against a lane that a live [`crate::LaneWriter`] is appending
/// to and the two will race on the same files: a lane has one mutator at
/// a time. Close the writer first; a follower's cursor does not survive
/// the pass (see [`crate::Tailer::rebind`]).
#[derive(Debug)]
pub struct Compactor {
    dir: std::path::PathBuf,
    policy: MaintenancePolicy,
    metrics: CompactorMetrics,
}

/// The pass's metric handles (`docs/OBSERVABILITY.md` §7).
#[derive(Debug)]
struct CompactorMetrics {
    /// `store_compaction_passes_total` — passes that changed the store.
    passes: Counter,
    /// `store_compaction_reclaimed_bytes_total` — on-disk bytes removed.
    reclaimed: Counter,
    /// `store_compaction_grown_bytes_total` — on-disk bytes *added* by
    /// passes that left a lane larger than they found it.
    grown: Counter,
    /// `store_compaction_envelope_before_bytes_total` — frame header and
    /// meta bytes the changed lanes held going in.
    envelope_before: Counter,
    /// `store_compaction_envelope_after_bytes_total` — and coming out.
    envelope_after: Counter,
    /// `store_compaction_frames_total{codec}` — frames re-encoded under a
    /// recompression target, by the codec they were stored under, indexed
    /// by codec id.
    frames: Vec<Counter>,
    /// `store_compaction_packs_written_total` — pack files written.
    packs_written: Counter,
    /// `store_compaction_lanes_packed_total` — lane segments written into
    /// them.
    lanes_packed: Counter,
    /// `store_compaction_lanes_read_once_total` — small v1 lanes read
    /// whole and scanned, their sidecar unread.
    lanes_read_once: Counter,
    /// `store_pack_dead_bytes` — superseded pack entry bytes the last pass
    /// left in the packs it kept.
    pack_dead_bytes: Gauge,
    /// `store_compaction_pass_ns` — wall time of each pass.
    pass_ns: Histogram,
    /// `store_compaction_lane_pass_ns` — wall time of each per-lane job
    /// inside a pass (one sample per lane, whichever worker ran it).
    lane_pass_ns: Histogram,
    /// `store_compaction_parallel_lanes` — worker threads the last
    /// multi-lane pass resolved to (1 = serial).
    parallel_lanes: Gauge,
}

impl CompactorMetrics {
    fn from_registry(registry: &Registry) -> Self {
        CompactorMetrics {
            passes: registry.counter("store_compaction_passes_total"),
            reclaimed: registry.counter("store_compaction_reclaimed_bytes_total"),
            grown: registry.counter("store_compaction_grown_bytes_total"),
            envelope_before: registry.counter("store_compaction_envelope_before_bytes_total"),
            envelope_after: registry.counter("store_compaction_envelope_after_bytes_total"),
            frames: CodecId::ALL
                .iter()
                .map(|codec| {
                    registry
                        .counter_with("store_compaction_frames_total", &[("codec", codec.name())])
                })
                .collect(),
            packs_written: registry.counter("store_compaction_packs_written_total"),
            lanes_packed: registry.counter("store_compaction_lanes_packed_total"),
            lanes_read_once: registry.counter("store_compaction_lanes_read_once_total"),
            pack_dead_bytes: registry.gauge("store_pack_dead_bytes"),
            pass_ns: registry.histogram("store_compaction_pass_ns"),
            lane_pass_ns: registry.histogram("store_compaction_lane_pass_ns"),
            parallel_lanes: registry.gauge("store_compaction_parallel_lanes"),
        }
    }

    fn disabled() -> Self {
        Self::from_registry(&Registry::disabled())
    }

    /// Folds one finished pass into the series. A pass that touched
    /// nothing (already-compact store, disabled policy) is not counted:
    /// the counter tracks passes that changed the store, and each lane a
    /// pass changed adds its byte and frame figures once.
    fn record(&self, report: &CompactionReport) {
        if !report.is_noop() {
            self.passes.inc();
        }
        self.packs_written.add(report.packs_written);
        self.lanes_packed.add(report.lanes_packed);
        self.lanes_read_once.add(report.lanes_read_once);
        self.pack_dead_bytes.set(report.pack_dead_bytes as i64);
        for lane in report.lanes.iter().filter(|lane| !lane.is_noop()) {
            self.reclaimed.add(lane.reclaimed_bytes());
            self.grown.add(lane.grown_bytes());
            self.envelope_before.add(lane.envelope_bytes_before);
            self.envelope_after.add(lane.envelope_bytes_after);
            for (counter, &frames) in self.frames.iter().zip(&lane.frames_by_codec) {
                counter.add(frames);
            }
        }
    }
}

/// What one lane job of a pass produced, or `None` for a lane with
/// nothing to compact.
type LaneOutcome = Result<Option<LaneJob>, TraceError>;

/// One lane's compaction, as its job leaves it.
#[derive(Debug)]
enum LaneJob {
    /// Done. `repair` names a pack whose index did not give this lane's
    /// rows: the pass writes that index anew.
    Done {
        report: LaneCompaction,
        repair: Option<u32>,
    },
    /// Done but for the lane's rewritten run, coded but not written: it
    /// may go into a pack, which the pass's packer decides.
    Deferred(Deferred),
}

impl Compactor {
    /// A compactor over the store directory `dir` with `policy`.
    pub fn new(dir: impl AsRef<Path>, policy: MaintenancePolicy) -> Self {
        Compactor {
            dir: dir.as_ref().to_path_buf(),
            policy,
            metrics: CompactorMetrics::disabled(),
        }
    }

    /// Exports this pass's counters into `registry` as the
    /// `store_compaction_*` family (see `docs/OBSERVABILITY.md`).
    #[must_use]
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = CompactorMetrics::from_registry(registry);
        self
    }

    /// The policy the pass applies.
    pub fn policy(&self) -> &MaintenancePolicy {
        &self.policy
    }

    /// Compacts every lane in the directory and rewrites the sidecar of
    /// each lane it changed or could not trust the sidecar of, so the
    /// store reopens clean; a lane's trusted `.idx` that still describes
    /// it is left as it is.
    ///
    /// Lanes are independent jobs: with more than one lane they run
    /// concurrently on up to [`MaintenancePolicy::compact_workers`]
    /// threads (auto-sized by default), and every lane is attempted even
    /// when a sibling fails — one corrupt lane must not keep the others
    /// from being maintained. Each lane's own journal/rename protocol is
    /// unchanged, so crash safety is exactly a one-worker pass's.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on filesystem failures and
    /// [`TraceError::Decode`] when a segment is corrupt beyond a torn
    /// tail (frames are CRC-verified as they are copied). The error is
    /// the failing lane's first (lowest lane number), raised only after
    /// every lane has run to completion.
    pub fn compact(&self) -> Result<CompactionReport, TraceError> {
        self.pass(None)
    }

    /// Compacts one lane and rewrites its sidecar, under the rule of
    /// [`Compactor::compact`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Compactor::compact`]; an unknown lane is an
    /// empty no-op.
    pub fn compact_lane(&self, lane: u32) -> Result<LaneCompaction, TraceError> {
        let report = self.pass(Some(lane))?.lanes.pop();
        Ok(report.unwrap_or(LaneCompaction {
            lane,
            ..LaneCompaction::default()
        }))
    }

    /// One pass over every lane, or over the lane `only`.
    fn pass(&self, only: Option<u32>) -> Result<CompactionReport, TraceError> {
        let pass_span = self.metrics.pass_ns.span();
        // The pass's one listing: every lane job works from the files it
        // saw, so a lane's cost does not grow with its neighbours' files.
        let listing = list_store_dir(&self.dir, only)?;
        let report = self.pass_over(listing, only);
        pass_span.end();
        let report = report?;
        self.metrics.record(&report);
        Ok(report)
    }

    /// The pass over the files `listing` saw.
    fn pass_over(
        &self,
        listing: StoreListing,
        only: Option<u32>,
    ) -> Result<CompactionReport, TraceError> {
        for name in &listing.pack_leftovers {
            remove_if_present(&self.dir.join(name))?;
        }
        let work: Vec<(u32, LaneFiles)> = listing.lanes.into_iter().collect();
        let workers = self.worker_count(work.len());
        if only.is_none() {
            self.metrics.parallel_lanes.set(workers as i64);
        }

        // One worker loop: a shared cursor hands lanes to whichever worker
        // is free, so one slow (large) lane never serialises the rest
        // behind it. The caller's thread is worker 0, so a pass of one
        // worker spawns nothing. Each finished lane goes to the packer in
        // ascending lane order whatever worker ran it, so which lanes
        // share a pack depends on the lanes and their sizes alone. While
        // the runs that finished ahead of a slower lane fill a pack, no
        // worker takes another lane: they wait in memory until it arrives.
        let first_pack = listing.last_pack.map_or(0, |last| last.saturating_add(1));
        let packer = std::sync::Mutex::new(Packer::new(&self.dir, &self.policy, first_pack));
        let arrived = std::sync::Condvar::new();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let read_once = AtomicU64::new(0);
        let worker = || {
            let _wake = WakeOnPanic(&packer, &arrived);
            let mut coder = RunCoder::default();
            loop {
                drop(
                    arrived
                        .wait_while(lock(&packer), |packer| packer.is_full())
                        .unwrap_or_else(std::sync::PoisonError::into_inner),
                );
                let at = next.fetch_add(1, Ordering::SeqCst);
                let Some((lane, files)) = work.get(at) else {
                    break;
                };
                let outcome = self.compact_lane_job(*lane, files, &mut coder, &read_once);
                lock(&packer).arrive(at, *lane, outcome);
                arrived.notify_all();
            }
        };
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
            worker();
            for helper in helpers {
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            }
        });
        let mut packer = packer
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        packer.flush();

        // Successes in ascending lane order; the lowest failing lane's
        // error surfaces after every lane ran.
        packer.outcomes.sort_unstable_by_key(|(lane, _)| *lane);
        let mut report = CompactionReport {
            packs_written: packer.written.len() as u64,
            lanes_packed: packer
                .written
                .iter()
                .map(|(_, lanes)| lanes.len() as u64)
                .sum(),
            lanes_read_once: read_once.into_inner(),
            ..CompactionReport::default()
        };
        let mut first_error: Option<TraceError> = None;
        for (_, outcome) in packer.outcomes {
            match outcome {
                Ok(lane_report) => report.lanes.push(lane_report),
                Err(error) => {
                    first_error.get_or_insert(error);
                }
            }
        }
        let tidied = tidy_packs(&self.dir, &listing.packs, &packer.written, &packer.repair);
        if let Some(error) = first_error {
            return Err(error);
        }
        report.pack_dead_bytes = tidied?;
        Ok(report)
    }

    /// Workers for a pass over `lanes` lanes, the caller's thread counted:
    /// the policy knob, or `min(lanes, available_parallelism)` when it is
    /// zero (auto).
    fn worker_count(&self, lanes: usize) -> usize {
        let cap = if self.policy.compact_workers > 0 {
            self.policy.compact_workers
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        cap.min(lanes).max(1)
    }

    /// One lane's complete job — crash recovery over the files the
    /// listing saw, then the compaction pass — timed as a
    /// `store_compaction_lane_pass_ns` sample. This is the unit of work
    /// the parallel pass distributes, on the worker's `coder`; a lane it
    /// reads once is counted into `read_once`. A lane the listing saw no
    /// segment of (only a journal, temp files or files a pack superseded
    /// outlived its segments) is recovered and yields no report.
    fn compact_lane_job(
        &self,
        lane: u32,
        files: &LaneFiles,
        coder: &mut RunCoder,
        read_once: &AtomicU64,
    ) -> LaneOutcome {
        let lane_span = self.metrics.lane_pass_ns.span();
        let seqs = recover_interrupted_merge(&self.dir, lane, files)?;
        let outcome = if files.has_segments() {
            self.compact_lane_seqs(lane, &seqs, files, coder, read_once)
                .map(Some)
        } else {
            Ok(None)
        };
        lane_span.end();
        outcome
    }

    fn compact_lane_seqs(
        &self,
        lane: u32,
        seqs: &[u32],
        files: &LaneFiles,
        coder: &mut RunCoder,
        read_once: &AtomicU64,
    ) -> Result<LaneJob, TraceError> {
        let packed = files.packed_segment();
        let done = |report| LaneJob::Done {
            report,
            repair: None,
        };
        if !self.policy.is_enabled() {
            // A disabled policy is a true no-op: report the lane's state
            // without truncating tails or rewriting the sidecar, so the
            // store can be inspected exactly as the crash left it.
            let loaded = load_lane(&self.dir, lane, seqs, files.packed.as_ref())?;
            let bytes: u64 = loaded
                .index
                .segments
                .iter()
                .map(|segment| segment.committed_bytes)
                .sum();
            return Ok(done(LaneCompaction {
                lane,
                segments_before: loaded.index.segments.len(),
                segments_after: loaded.index.segments.len(),
                bytes_before: bytes,
                bytes_after: bytes,
                ..LaneCompaction::default()
            }));
        }
        // Every file ends on a frame boundary before any merge. A small v1
        // lane is read once: the scan that indexes it checks each frame,
        // and the run coder codes the same bytes. Any other lane is loaded
        // from its sidecar, or scanned when that is declined.
        let (index, sidecar, torn_truncated, once) =
            match read_small_v1_lane(&self.dir, lane, seqs, files, &self.policy)? {
                Some((index, torn_truncated, segment)) => {
                    read_once.fetch_add(1, Ordering::SeqCst);
                    (index, None, torn_truncated, Some(segment))
                }
                None => {
                    let loaded = load_lane(&self.dir, lane, seqs, files.packed.as_ref())?;
                    let torn_truncated = truncate_torn(&self.dir, &loaded.torn)?;
                    (loaded.index, Some(loaded.sidecar), torn_truncated, None)
                }
            };
        let sources = once
            .as_ref()
            .map_or(Sources::Store(packed), Sources::Scanned);
        let (index, report, deferred) = compact_lane_index(
            &self.dir,
            index,
            &self.policy,
            torn_truncated,
            coder,
            sources,
        )?;
        if let Some(run) = deferred {
            return Ok(LaneJob::Deferred(Deferred {
                run,
                index,
                report,
                legacy_sidecar: files.legacy_sidecar,
                sidecar: files.sidecar,
            }));
        }
        if let Some(packed) =
            packed.filter(|packed| index.segments.len() == 1 && index.segments[0].seq == packed.seq)
        {
            // The pack index stands for the sidecar of a lane whose one
            // segment is packed: a sidecar left beside it is superseded.
            remove_lane_sidecars(&self.dir, lane, files.sidecar, files.legacy_sidecar)?;
            let rows_trusted = sidecar == Some(Ok(SidecarKind::Pack)) || !seqs.is_empty();
            return Ok(LaneJob::Done {
                report,
                repair: (!rows_trusted).then_some(packed.pack),
            });
        }
        // A trusted `.idx` of a lane the pass left as it found it (no
        // segment written or deleted, no tail truncated, no journal
        // finished) still describes the lane: leave its bytes alone.
        let untouched = sidecar == Some(Ok(SidecarKind::Binary))
            && !files.journal
            && !files.legacy_sidecar
            && report.is_noop();
        if !untouched {
            write_sidecar(&self.dir, &index, files.legacy_sidecar)?;
        }
        Ok(done(report))
    }
}

/// Locks the pass's packer. A worker that panicked holding it poisons it,
/// and its panic is raised again when the pass joins it, so no report is
/// ever built from what it left: the others need not stop first.
fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Lets the workers of a pass waiting on a job that a panicking one held
/// go on: that job never arrives, and the panic is raised again when the
/// pass joins its worker.
struct WakeOnPanic<'a, 'p>(&'a std::sync::Mutex<Packer<'p>>, &'a std::sync::Condvar);

impl Drop for WakeOnPanic<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock(self.0).stalled = true;
            self.1.notify_all();
        }
    }
}

/// Removes the sidecars of `lane` a listing saw — its `.idx` and its
/// `legacy` `.idx.json` — whose index a pack index now holds.
fn remove_lane_sidecars(dir: &Path, lane: u32, idx: bool, legacy: bool) -> Result<(), TraceError> {
    if idx {
        remove_if_present(&dir.join(sidecar_file_name(lane)))?;
    }
    if legacy {
        remove_if_present(&dir.join(legacy_sidecar_file_name(lane)))?;
    }
    Ok(())
}

/// The one segment of a lane, as [`read_small_v1_lane`] read it.
#[derive(Debug)]
struct ReadOnce {
    path: PathBuf,
    seq: u32,
    /// The segment's intact prefix, every frame of which passed its CRC
    /// check in the scan that indexed it.
    bytes: Vec<u8>,
}

/// Where [`RunCoder::code`] reads a run's segments from.
#[derive(Debug, Clone, Copy)]
enum Sources<'a> {
    /// The store: each segment from its own file, or from its pack when it
    /// is the lane's packed one, every frame CRC-checked as it is coded.
    Store(Option<&'a PackedSegment>),
    /// The lane's one segment, already read and scanned.
    Scanned(&'a ReadOnce),
}

impl Sources<'_> {
    /// The lane's packed segment, when it holds windows.
    fn packed(&self) -> Option<&PackedSegment> {
        match *self {
            Sources::Store(packed) => packed,
            Sources::Scanned(_) => None,
        }
    }
}

/// Reads a small v1 lane that a recompressing pass rewrites in one read,
/// and indexes it by a scan of those bytes, which makes the one CRC check
/// of each frame: after recovery the lane holds one own segment file
/// (`seqs`), the listing saw no pack entry, journal or superseded file of
/// it (`files`), the opened file is at most `PACK_MEMBER_MAX_BYTES` long
/// and its header says format v1. Its sidecar is neither read nor
/// `stat`'ed. A torn tail is truncated, as the scan of a lane whose
/// sidecar was declined truncates it, when the listing saw no sidecar;
/// beside one the lane is left to [`load_lane`]. Returns the index, the
/// bytes truncated and the segment, or `None` for any other lane.
///
/// # Errors
///
/// [`TraceError::Io`] when the file cannot be read or truncated, and as
/// [`scan_segment`].
fn read_small_v1_lane(
    dir: &Path,
    lane: u32,
    seqs: &[u32],
    files: &LaneFiles,
    policy: &MaintenancePolicy,
) -> Result<Option<(LaneIndex, u64, ReadOnce)>, TraceError> {
    let &[seq] = seqs else {
        return Ok(None);
    };
    if policy.recompress.is_none()
        || files.packed.is_some()
        || files.journal
        || !files.superseded.is_empty()
    {
        return Ok(None);
    }
    let Some((path, mut bytes)) = read_small_segment(dir, lane, seq, PACK_MEMBER_MAX_BYTES)? else {
        return Ok(None);
    };
    if bytes.len() < SEGMENT_HEADER_LEN as usize || bytes[4] != SEGMENT_VERSION_V1 {
        return Ok(None);
    }
    let scanned = scan_segment(&bytes, &path, lane, seq)?;
    if scanned.torn.is_some() && (files.sidecar || files.legacy_sidecar) {
        // A sidecar that vouches for the bytes past the intact prefix
        // makes them corrupt, not torn: `load_lane` tells which.
        return Ok(None);
    }
    let torn_truncated = truncate_torn(dir, scanned.torn.as_slice())?;
    bytes.truncate(scanned.committed_bytes as usize);
    let mut index = LaneIndex::new(lane);
    index.segments.push(scanned.meta);
    index.windows = scanned.entries;
    Ok(Some((index, torn_truncated, ReadOnce { path, seq, bytes })))
}

/// A lane's rewritten run, coded but not yet written, and what the lane
/// needs once it is.
#[derive(Debug)]
struct Deferred {
    run: DeferredRun,
    /// The lane's index after the pass, the run's segment numbered after
    /// its first source.
    index: LaneIndex,
    report: LaneCompaction,
    legacy_sidecar: bool,
    sidecar: bool,
}

/// A coded run that [`compact_lane_index`] left to the pass's packer.
#[derive(Debug)]
struct DeferredRun {
    /// The run's segment as a file of its own would hold it, numbered
    /// after the run's first source.
    segment: Vec<u8>,
    /// The sources' sequence numbers, ascending.
    seqs: Vec<u32>,
    /// Whether a source is the lane's packed segment, which only a newer
    /// pack can supersede.
    must_pack: bool,
}

impl Deferred {
    fn lane(&self) -> u32 {
        self.index.lane
    }

    /// The run's first and last source: the number of its segment on its
    /// own, and as a pack entry (which supersedes every file numbered up
    /// to it).
    fn seqs(&self) -> (u32, u32) {
        let seqs = &self.run.seqs;
        (seqs[0], seqs[seqs.len() - 1])
    }

    fn member(&self) -> PackMember<'_> {
        PackMember {
            lane: self.lane(),
            seq: self.seqs().1,
            segment: &self.run.segment,
        }
    }
}

/// Gathers the runs lane jobs leave it, in ascending lane order, into
/// packs of at most `max_merged_bytes`, and writes each pack — or a run
/// that ends up alone in one, unless it must be packed, as a segment file
/// of its own.
#[derive(Debug)]
struct Packer<'a> {
    dir: &'a Path,
    max_bytes: u64,
    next_pack: u32,
    /// Jobs that finished ahead of a lower lane, by position in the pass,
    /// and the bytes of the runs they hold.
    waiting: std::collections::BTreeMap<usize, (u32, LaneOutcome)>,
    waiting_bytes: u64,
    /// Whether a worker panicked: the job it held never arrives.
    stalled: bool,
    /// Position of the next job to take.
    next: usize,
    /// The pack being gathered.
    group: Vec<Deferred>,
    group_bytes: u64,
    /// Every lane's outcome, once final.
    outcomes: Vec<(u32, Result<LaneCompaction, TraceError>)>,
    /// Packs written, with their lanes.
    written: Vec<(u32, Vec<u32>)>,
    /// Packs whose index the pass writes anew.
    repair: std::collections::BTreeSet<u32>,
}

impl<'a> Packer<'a> {
    fn new(dir: &'a Path, policy: &MaintenancePolicy, first_pack: u32) -> Self {
        Packer {
            dir,
            max_bytes: policy.max_merged_bytes,
            next_pack: first_pack,
            waiting: std::collections::BTreeMap::new(),
            waiting_bytes: 0,
            stalled: false,
            next: 0,
            group: Vec::new(),
            group_bytes: PACK_HEADER_LEN,
            outcomes: Vec::new(),
            written: Vec::new(),
            repair: std::collections::BTreeSet::new(),
        }
    }

    /// Takes the outcome of the job at position `at` of the pass, and
    /// every waiting one it was the last gap in front of.
    fn arrive(&mut self, at: usize, lane: u32, outcome: LaneOutcome) {
        self.waiting_bytes += run_bytes(&outcome);
        self.waiting.insert(at, (lane, outcome));
        while let Some((lane, outcome)) = self.waiting.remove(&self.next) {
            self.next += 1;
            self.waiting_bytes -= run_bytes(&outcome);
            match outcome {
                Ok(Some(LaneJob::Done { report, repair })) => {
                    self.repair.extend(repair);
                    self.outcomes.push((lane, Ok(report)));
                }
                Ok(Some(LaneJob::Deferred(deferred))) => self.gather(deferred),
                Ok(None) => {}
                Err(error) => self.outcomes.push((lane, Err(error))),
            }
        }
    }

    /// Whether the runs waiting for a slower lane hold more than a pack:
    /// no worker takes another lane until it arrives.
    fn is_full(&self) -> bool {
        !self.stalled && self.waiting_bytes > self.max_bytes
    }

    fn gather(&mut self, deferred: Deferred) {
        let bytes = deferred.member().entry_len();
        if !self.group.is_empty() && self.group_bytes + bytes > self.max_bytes {
            self.flush();
        }
        self.group_bytes += bytes;
        self.group.push(deferred);
    }

    /// Writes the runs gathered so far: a pack of them, or the one run as
    /// a segment file of its own.
    fn flush(&mut self) {
        let group = std::mem::take(&mut self.group);
        self.group_bytes = PACK_HEADER_LEN;
        let Some(first) = group.first() else {
            return;
        };
        let written = if group.len() == 1 && !first.run.must_pack {
            write_alone(self.dir, first)
        } else {
            let pack = self.next_pack;
            self.next_pack = self.next_pack.saturating_add(1);
            write_packed(self.dir, pack, &group, &mut self.written)
        };
        match written {
            Ok(()) => {
                for deferred in group {
                    self.outcomes.push((deferred.lane(), Ok(deferred.report)));
                }
            }
            Err(error) => self.outcomes.push((first.lane(), Err(error))),
        }
    }
}

/// Bytes of the coded run a lane job's outcome holds.
fn run_bytes(outcome: &LaneOutcome) -> u64 {
    match outcome {
        Ok(Some(LaneJob::Deferred(deferred))) => deferred.run.segment.len() as u64,
        _ => 0,
    }
}

/// Writes a deferred run as a segment file of its own, as a pass that
/// packs nothing does, and then the lane's sidecar.
fn write_alone(dir: &Path, deferred: &Deferred) -> Result<(), TraceError> {
    let seqs = &deferred.run.seqs;
    commit_run(
        dir,
        deferred.lane(),
        seqs[0],
        &seqs[1..],
        &deferred.run.segment,
    )?;
    write_sidecar(dir, &deferred.index, deferred.legacy_sidecar)
}

/// Writes pack `pack` of `group`'s runs (`docs/FORMAT.md` §5.3): the pack
/// (temp file, fsync, rename — the commit, after which it joins `written`),
/// then, lane by lane, the deletion of the run's own source files and the
/// lane's sidecar — written anew for a lane with segments past the packed
/// one, deleted for one without — and last the pack index. A pack that
/// failed before its commit is not in `written`, so it supersedes nothing
/// the pass's tidying could delete.
fn write_packed(
    dir: &Path,
    pack: u32,
    group: &[Deferred],
    written: &mut Vec<(u32, Vec<u32>)>,
) -> Result<(), TraceError> {
    let members: Vec<PackMember> = group.iter().map(Deferred::member).collect();
    let entries = write_pack(dir, pack, &members)?;
    written.push((pack, group.iter().map(Deferred::lane).collect()));
    let mut indexes = Vec::with_capacity(group.len());
    for (deferred, entry) in group.iter().zip(&entries) {
        let (first, last) = deferred.seqs();
        // Numbered as a pack entry: the run's last source.
        let mut index = deferred.index.clone();
        for meta in index.segments.iter_mut().filter(|meta| meta.seq == first) {
            meta.seq = last;
        }
        for row in index.windows.iter_mut().filter(|row| row.segment == first) {
            row.segment = last;
        }
        for &seq in &deferred.run.seqs {
            // The lane's packed source is no file of its own.
            remove_if_present(&dir.join(segment_file_name(deferred.lane(), seq)))?;
        }
        if index.segments.iter().any(|meta| meta.seq != last) {
            write_sidecar(dir, &index, deferred.legacy_sidecar)?;
        } else {
            remove_lane_sidecars(
                dir,
                deferred.lane(),
                deferred.sidecar,
                deferred.legacy_sidecar,
            )?;
        }
        let rows = index.windows.partition_point(|row| row.segment == last);
        index.windows.truncate(rows);
        indexes.push((*entry, index.windows));
    }
    let lanes: Vec<(PackedSegment, &[WindowEntry])> = indexes
        .iter()
        .map(|(entry, rows)| (*entry, rows.as_slice()))
        .collect();
    write_pack_index(dir, pack, pack_len(&members), &lanes)
}

/// After a pass: writes anew the index of every pack still in use that a
/// reader could not trust (declined, or named in `repair`), then deletes
/// every pack that `written` left with no entry its lane reads. Returns
/// the bytes of the entries no lane reads in the packs kept.
fn tidy_packs(
    dir: &Path,
    packs: &[Pack],
    written: &[(u32, Vec<u32>)],
    repair: &std::collections::BTreeSet<u32>,
) -> Result<u64, TraceError> {
    let newest = newest_packs(packs, written);
    let dead = dead_packs(packs, &newest);
    let mut dead_bytes = 0;
    for pack in packs.iter().filter(|pack| !dead.contains(&pack.id)) {
        dead_bytes += pack
            .entries
            .iter()
            .filter(|entry| newest.get(&entry.segment.lane) != Some(&pack.id))
            .map(|entry| entry.segment.entry_len())
            .sum::<u64>();
        if pack.index.is_ok() && !repair.contains(&pack.id) {
            continue;
        }
        let mut lanes = Vec::with_capacity(pack.entries.len());
        for entry in &pack.entries {
            let segment = &entry.segment;
            let packed = Some(segment).filter(|segment| !segment.is_empty());
            let (index, _) = scan_lane(dir, segment.lane, &[], packed)?;
            lanes.push((*segment, index.windows));
        }
        let lanes: Vec<(PackedSegment, &[WindowEntry])> = lanes
            .iter()
            .map(|(segment, rows)| (*segment, rows.as_slice()))
            .collect();
        write_pack_index(dir, pack.id, pack.len, &lanes)?;
    }
    for pack in dead {
        remove_if_present(&dir.join(pack_file_name(pack)))?;
        remove_if_present(&dir.join(pack_index_file_name(pack)))?;
    }
    Ok(dead_bytes)
}

/// Crash journal of one multi-file segment merge.
///
/// Replacing N files with one cannot be a single atomic rename, so every
/// multi-file merge writes this manifest (atomically, temp + rename)
/// *before* the consolidated segment is renamed into place, and deletes
/// it after the replaced files are gone. The `target_bytes`/`target_crc`
/// pair says whether the rename happened: a reopen that finds a manifest
/// checks the target file against them and either treats the replaced
/// segments as gone (merge committed) or ignores the manifest entirely
/// (merge never landed — the old layout is intact). Writers and the
/// compactor additionally finish the interrupted step; readers just
/// interpret, staying read-only.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct CompactionManifest {
    schema: u32,
    lane: u32,
    target_seq: u32,
    /// Exact byte length of the committed consolidated segment.
    target_bytes: u64,
    /// CRC32 of the committed consolidated segment's full contents.
    target_crc: u32,
    /// Segments the merge replaces (never contains `target_seq`).
    replaced_seqs: Vec<u32>,
}

/// Manifest schema version.
const MANIFEST_SCHEMA: u32 = 1;

/// Fewest adjacent small segments worth a merge rewrite: one file has
/// nothing to merge with.
const MIN_MERGE_RUN: usize = 2;

/// The most bytes a run's sources may hold for the pass to pack it, unless
/// it must (it holds the lane's packed segment); a larger run is rewritten
/// into a segment file of its own. A lane's own files cost a cold open two
/// small reads and a `stat`, about what reading 64 KiB of segment costs,
/// so a larger lane gains little from sharing a file, while a rewrite of a
/// packed lane leaves its old entry dead in the older pack until every
/// lane of it has moved on.
const PACK_MEMBER_MAX_BYTES: u64 = 64 << 10;

/// What a lane's journal file holds.
enum Journal {
    /// The document of `docs/FORMAT.md` §5.3, for this lane.
    Merge(CompactionManifest),
    /// JSON whose `schema` is past this build's: a newer build's journal,
    /// not this build's to interpret or to delete.
    Newer,
    /// Anything else — torn, foreign, or naming another lane. Nothing can
    /// be finished from it: the merge never landed.
    Unreadable,
}

/// Reads and classifies the journal of `lane`.
fn read_journal(dir: &Path, lane: u32) -> std::io::Result<Journal> {
    #[derive(Deserialize)]
    struct Versioned {
        schema: u32,
    }
    let bytes = std::fs::read(dir.join(manifest_file_name(lane)))?;
    let Ok(text) = std::str::from_utf8(&bytes) else {
        return Ok(Journal::Unreadable);
    };
    Ok(match serde_json::from_str::<CompactionManifest>(text) {
        Ok(manifest) if manifest.schema == MANIFEST_SCHEMA && manifest.lane == lane => {
            Journal::Merge(manifest)
        }
        _ => match serde_json::from_str::<Versioned>(text) {
            Ok(versioned) if versioned.schema > MANIFEST_SCHEMA => Journal::Newer,
            _ => Journal::Unreadable,
        },
    })
}

/// Whether the manifest's consolidated segment was renamed into place.
fn manifest_committed(dir: &Path, manifest: &CompactionManifest) -> bool {
    match read_segment(dir, manifest.lane, manifest.target_seq, None, None) {
        Ok((_, bytes)) => {
            bytes.len() as u64 == manifest.target_bytes && crc32(&bytes) == manifest.target_crc
        }
        Err(_) => false,
    }
}

/// Reader-side, non-mutating recovery: the segments a reopen must ignore
/// because a committed-but-unfinished merge already replaced them.
pub(crate) fn segments_replaced_by_pending_merge(dir: &Path, lane: u32) -> Vec<u32> {
    match read_journal(dir, lane) {
        Ok(Journal::Merge(manifest)) if manifest_committed(dir, &manifest) => {
            manifest.replaced_seqs
        }
        _ => Vec::new(),
    }
}

/// Writer/compactor-side recovery over the files the caller's listing
/// saw: finishes (or rolls back) a merge that a crash interrupted, sweeps
/// the lane's stray temp files, deletes the own segment files a committed
/// pack superseded, and returns the lane's own segments as recovery left
/// them, ascending.
pub(crate) fn recover_interrupted_merge(
    dir: &Path,
    lane: u32,
    files: &LaneFiles,
) -> Result<Vec<u32>, TraceError> {
    let mut seqs = files.seqs.clone();
    if files.journal {
        let journal = read_journal(dir, lane)?;
        if let Journal::Merge(manifest) = &journal {
            if manifest_committed(dir, manifest) {
                // The consolidated segment landed: finish the deletions.
                for &seq in &manifest.replaced_seqs {
                    remove_if_present(&dir.join(segment_file_name(lane, seq)))?;
                }
            }
        }
        // Committed or not, readable or not, the journal entry is now
        // obsolete (a merge that never landed simply never happened) —
        // unless a newer build wrote it.
        if !matches!(journal, Journal::Newer) {
            std::fs::remove_file(dir.join(manifest_file_name(lane)))?;
        }
        seqs.retain(|seq| dir.join(segment_file_name(lane, *seq)).exists());
    }
    for temp in &files.temps {
        std::fs::remove_file(dir.join(temp))?;
    }
    for &seq in &files.superseded {
        remove_if_present(&dir.join(segment_file_name(lane, seq)))?;
    }
    Ok(seqs)
}

/// The work plan for one segment within a compaction pass.
struct SegmentPlan {
    meta: SegmentMeta,
    /// Indexes into the lane's window list, in file order.
    windows: Vec<usize>,
    /// Windows removed by the retention horizon.
    dropped: usize,
    /// Whether the segment must be rewritten (it lost windows) or is a
    /// merge candidate (small).
    rewrite: bool,
    /// Whether the policy's recompression target applies to it (it is a
    /// format-v1 segment and a target codec is set).
    recompress: bool,
    candidate: bool,
}

/// One segment of a lane after a pass: kept as it is, or the segment a
/// run of adjacent candidates is rewritten into.
enum Chunk {
    Keep(usize),
    Rewrite(std::ops::Range<usize>),
}

/// Core of the pass: applies `policy` (enabled — [`Compactor`] answers a
/// disabled one itself) to `index`'s segments, read from `sources` — the
/// lane's packed one lying in a pack — and returns the rewritten index,
/// the report entry, and the one run it coded but left to the pass's
/// packer: a run holding the packed segment, which only a newer pack
/// supersedes, or the run that becomes the lane's only segment, in format
/// v3 or v4, which may share a pack with other lanes'.
///
/// `torn_bytes_truncated` is whatever the caller already reclaimed from
/// torn tails, folded into the report; `coder` codes the runs.
fn compact_lane_index(
    dir: &Path,
    index: LaneIndex,
    policy: &MaintenancePolicy,
    torn_bytes_truncated: u64,
    coder: &mut RunCoder,
    sources: Sources<'_>,
) -> Result<(LaneIndex, LaneCompaction, Option<DeferredRun>), TraceError> {
    let lane = index.lane;
    let packed = sources.packed();
    let bytes_before: u64 = index.segments.iter().map(|s| s.committed_bytes).sum();
    let mut report = LaneCompaction {
        lane,
        segments_before: index.segments.len(),
        segments_after: index.segments.len(),
        torn_bytes_truncated,
        bytes_before,
        bytes_after: bytes_before,
        ..LaneCompaction::default()
    };
    report.payload_bytes = index.total_payload_bytes();
    (report.envelope_bytes_before, report.stored_bytes) = envelope_and_stored_bytes(&index);
    report.envelope_bytes_after = report.envelope_bytes_before;
    if index.segments.is_empty() {
        return Ok((index, report, None));
    }

    // Retention horizon: relative to the newest recorded window, in trace
    // time, so the policy is independent of wall-clock replay time.
    let cutoff = policy.retention_ns.and_then(|retention| {
        let newest = index.windows.iter().map(|w| w.end_ns).max()?;
        Some(newest.saturating_sub(retention))
    });
    let survives = |entry: &WindowEntry| cutoff.map_or(true, |cutoff| entry.end_ns > cutoff);

    // Per-segment plan: surviving windows, drops, and candidacy.
    let mut plans: Vec<SegmentPlan> = index
        .segments
        .iter()
        .map(|meta| SegmentPlan {
            meta: *meta,
            windows: Vec::new(),
            dropped: 0,
            rewrite: false,
            recompress: false,
            candidate: false,
        })
        .collect();
    let plan_by_seq: std::collections::HashMap<u32, usize> = plans
        .iter()
        .enumerate()
        .map(|(position, plan)| (plan.meta.seq, position))
        .collect();
    for (position, entry) in index.windows.iter().enumerate() {
        let plan = plan_by_seq
            .get(&entry.segment)
            .map(|&at| &mut plans[at])
            .ok_or_else(|| TraceError::Decode {
                offset: 0,
                reason: format!(
                    "lane {lane} index names segment {} that the sidecar does not list",
                    entry.segment
                ),
            })?;
        if survives(entry) {
            plan.windows.push(position);
        } else {
            plan.dropped += 1;
            report.windows_dropped += 1;
            report.events_dropped += u64::from(entry.events);
        }
    }
    // A segment already at (or above) the consolidated-size cap is never
    // a merge candidate, so repeated passes converge to a stable layout
    // instead of rewriting the whole lane each time.
    let small_threshold = policy.small_segment_bytes.min(policy.max_merged_bytes);
    for plan in &mut plans {
        plan.rewrite = plan.dropped > 0;
        // Only v1 segments are recompression candidates: a v2 or v3
        // segment was already written under some codec configuration
        // (frames its codec refused are identity by *choice*), so
        // skipping it keeps repeated passes convergent instead of
        // rewriting the lane forever.
        plan.recompress = policy.recompress.is_some() && plan.meta.version == SEGMENT_VERSION_V1;
        plan.candidate = plan.rewrite
            || plan.recompress
            || (policy.small_segment_bytes > 0 && plan.meta.committed_bytes < small_threshold);
    }

    // Maximal runs of adjacent candidates, each split into chunks whose
    // summed committed bytes stay within `max_merged_bytes` (bounding
    // both the consolidated file and the pass's memory); a chunk is
    // rewritten when it must be (drops) or when merging at least
    // `MIN_MERGE_RUN` files.
    let mut chunks = Vec::new();
    let mut start = 0usize;
    while start < plans.len() {
        if !plans[start].candidate {
            chunks.push(Chunk::Keep(start));
            start += 1;
            continue;
        }
        // The chunk: adjacent candidates whose summed size fits the cap
        // (a single oversized candidate still gets its own chunk so
        // retention rewrites always happen).
        let mut end = start + 1;
        let mut chunk_bytes = plans[start].meta.committed_bytes;
        while end < plans.len()
            && plans[end].candidate
            && chunk_bytes + plans[end].meta.committed_bytes <= policy.max_merged_bytes
        {
            chunk_bytes += plans[end].meta.committed_bytes;
            end += 1;
        }
        let run = &plans[start..end];
        let must_rewrite =
            run.iter().any(|plan| plan.rewrite || plan.recompress) || run.len() >= MIN_MERGE_RUN;
        if must_rewrite {
            chunks.push(Chunk::Rewrite(start..end));
        } else {
            chunks.extend((start..end).map(Chunk::Keep));
        }
        start = end;
    }
    let holds_packed = |run: &[SegmentPlan]| {
        packed.is_some_and(|packed| run.iter().any(|plan| plan.meta.seq == packed.seq))
    };
    let segments_left = chunks
        .iter()
        .filter(|chunk| match chunk {
            Chunk::Keep(_) => true,
            Chunk::Rewrite(run) => plans[run.clone()]
                .iter()
                .any(|plan| !plan.windows.is_empty()),
        })
        .count();

    let mut new_segments: Vec<SegmentMeta> = Vec::new();
    let mut new_windows: Vec<WindowEntry> = Vec::new();
    let mut deferred = None;
    for chunk in chunks {
        let run = match chunk {
            Chunk::Keep(at) => {
                // Untouched segment: entries carry over verbatim.
                new_segments.push(plans[at].meta);
                new_windows.extend(plans[at].windows.iter().map(|&w| index.windows[w]));
                continue;
            }
            Chunk::Rewrite(run) => &plans[run],
        };
        report.merged_runs += usize::from(run.len() > 1);
        let all_v1 = run
            .iter()
            .all(|plan| plan.meta.version == SEGMENT_VERSION_V1 && !plan.recompress);
        // One run at most is left to the packer. The packed segment is the
        // lane's first, so a run holding it comes first; the lane's only
        // surviving segment goes to it too unless that run took the turn or
        // its sources hold more than `PACK_MEMBER_MAX_BYTES`. A run that
        // keeps nothing and holds no packed segment is deleted by
        // `rewrite_run`.
        let must_pack = holds_packed(run);
        let survives = run.iter().any(|plan| !plan.windows.is_empty());
        let small = run
            .iter()
            .map(|plan| plan.meta.committed_bytes)
            .sum::<u64>()
            <= PACK_MEMBER_MAX_BYTES;
        if must_pack || (deferred.is_none() && survives && segments_left == 1 && !all_v1 && small) {
            debug_assert!(deferred.is_none(), "lane {lane} defers two runs");
            let target_seq = run[0].meta.seq;
            let (version, segment, entries) = coder.code(
                dir,
                lane,
                sources,
                target_seq,
                run,
                &index.windows,
                policy.recompress,
                &mut report.frames_by_codec,
            )?;
            report.segments_rewritten += 1;
            // A run that keeps no window is left out of the index: its
            // pack entry only supersedes what it replaced.
            if !entries.is_empty() {
                new_segments.push(SegmentMeta {
                    seq: target_seq,
                    committed_bytes: segment.len() as u64,
                    version,
                });
                new_windows.extend(entries);
            }
            deferred = Some(DeferredRun {
                segment,
                seqs: run.iter().map(|plan| plan.meta.seq).collect(),
                must_pack,
            });
            continue;
        }
        let consolidated = rewrite_run(
            dir,
            lane,
            run,
            &index.windows,
            policy.recompress,
            &mut report.frames_by_codec,
            coder,
        )?;
        report.segments_rewritten += usize::from(consolidated.is_some());
        if let Some((meta, entries)) = consolidated {
            new_segments.push(meta);
            new_windows.extend(entries);
        }
    }

    let mut rebuilt = LaneIndex::new(lane);
    rebuilt.segments = new_segments;
    rebuilt.windows = new_windows;
    report.segments_after = rebuilt.segments.len();
    report.bytes_after = rebuilt.segments.iter().map(|s| s.committed_bytes).sum();
    report.payload_bytes = rebuilt.total_payload_bytes();
    (report.envelope_bytes_after, report.stored_bytes) = envelope_and_stored_bytes(&rebuilt);
    Ok((rebuilt, report, deferred))
}

/// Rewrites one run of adjacent segments into a single consolidated
/// segment (named after the run's first sequence number), re-verifying
/// every surviving frame's CRC during the copy. Returns `None` when no
/// window survived (the run's files are simply deleted).
///
/// The run is coded by [`RunCoder::code`]: as format v1 when every source
/// is v1 and nothing is re-encoded, otherwise as v3, or v4 when a template
/// table pays for itself. Replay is byte-for-byte identical in every case.
///
/// Multi-file merges are journalled through a [`CompactionManifest`]
/// written before the consolidated file is renamed into place, so a
/// crash at any step leaves a store that reopens without duplicated (or
/// lost) windows: recovery either finishes the deletions or discards the
/// never-landed merge.
fn rewrite_run(
    dir: &Path,
    lane: u32,
    run: &[SegmentPlan],
    windows: &[WindowEntry],
    recompress: Option<CodecId>,
    frames_by_codec: &mut [u64; CodecId::ALL.len()],
    coder: &mut RunCoder,
) -> Result<Option<(SegmentMeta, Vec<WindowEntry>)>, TraceError> {
    let target_seq = run[0].meta.seq;
    let survivors: usize = run.iter().map(|plan| plan.windows.len()).sum();
    if survivors == 0 {
        // Pure retention drop: deleting files is idempotent, so a crash
        // mid-loop just leaves work for the next pass.
        for plan in run {
            std::fs::remove_file(dir.join(segment_file_name(lane, plan.meta.seq)))?;
        }
        return Ok(None);
    }

    // The consolidated segment is built in memory (runs are made of small
    // segments, bounded by their summed committed size) so the journal
    // can record its exact length and CRC before anything moves.
    let (out_version, merged, entries) = coder.code(
        dir,
        lane,
        Sources::Store(None),
        target_seq,
        run,
        windows,
        recompress,
        frames_by_codec,
    )?;
    let replaced_seqs: Vec<u32> = run[1..].iter().map(|plan| plan.meta.seq).collect();
    commit_run(dir, lane, target_seq, &replaced_seqs, &merged)?;
    Ok(Some((
        SegmentMeta {
            seq: target_seq,
            committed_bytes: merged.len() as u64,
            version: out_version,
        },
        entries,
    )))
}

/// Puts the segment `merged` in place as segment `target_seq` of `lane`,
/// replacing it and the segments `replaced_seqs`: a temp file, fsynced and
/// renamed over the target. Multi-file merges are journalled first.
fn commit_run(
    dir: &Path,
    lane: u32,
    target_seq: u32,
    replaced_seqs: &[u32],
    merged: &[u8],
) -> Result<(), TraceError> {
    // Journal multi-file merges; a single-file rewrite is already atomic
    // via the rename below.
    if !replaced_seqs.is_empty() {
        let manifest = CompactionManifest {
            schema: MANIFEST_SCHEMA,
            lane,
            target_seq,
            target_bytes: merged.len() as u64,
            target_crc: crc32(merged),
            replaced_seqs: replaced_seqs.to_vec(),
        };
        let json = serde_json::to_string(&manifest)
            .map_err(|error| std::io::Error::other(error.to_string()))?;
        // Synced before the rename, like the segment it describes: after
        // power loss the journal must not be the one torn file.
        commit_file(dir, &manifest_file_name(lane), Durability::Synced, |file| {
            file.write_all(json.as_bytes())
        })?;
    }

    // Cutover: the consolidated file replaces the run's first segment,
    // then the now-duplicated later files disappear, then the journal
    // entry. A reader or recovery pass at any intermediate step sees
    // either the old or the new layout of the run, never both.
    commit_file(
        dir,
        &segment_file_name(lane, target_seq),
        Durability::Synced,
        |file| file.write_all(merged),
    )?;
    for &seq in replaced_seqs {
        std::fs::remove_file(dir.join(segment_file_name(lane, seq)))?;
    }
    if !replaced_seqs.is_empty() {
        std::fs::remove_file(dir.join(manifest_file_name(lane)))?;
    }
    Ok(())
}

/// Where the block of a frame [`RunCoder::code`] writes comes from.
#[derive(Debug)]
enum RunBlock {
    /// A stored block carried over as it was, at this range of the run's
    /// carried bytes.
    Carried(std::ops::Range<usize>),
    /// Frame `frame` of the run's [`SegmentCoder`], counted into
    /// `frames_by_codec` when it is `recompressed`: re-encoded under the
    /// policy's target, not a templated block a rewrite moves.
    Coded { frame: usize, recompressed: bool },
}

/// What a compaction worker reuses from one run it codes to the next,
/// across the lanes it is handed in one pass: the [`SegmentCoder`] and the
/// buffers around it, so a pass over a thousand one-segment lanes does not
/// set up a thousand of each.
#[derive(Debug, Default)]
struct RunCoder {
    coder: SegmentCoder,
    /// Blocks carried over as they were, back to back.
    carried: Vec<u8>,
    /// The run's frames: rows, and where each one's block comes from.
    frames: Vec<(WindowEntry, RunBlock)>,
    /// Decodes a templated block against its own table.
    decoder: FrameDecoder,
    table: Vec<u8>,
    frame: Vec<u8>,
}

impl RunCoder {
    /// A rewritten run's segment. When every source is v1 and nothing is
    /// re-encoded it is v1 again, of the carried blocks: a v1 frame depends
    /// only on its row and its block, so each is its source frame byte for
    /// byte. Otherwise it is v3 or v4, and each frame's meta is coded anew
    /// against the frame written before it (a run joint or a retention
    /// drop changes the predecessor) and its CRC recomputed. Its block is
    /// carried over untouched, unless it is coded anew by the run's
    /// [`SegmentCoder`]: a v1 frame under a `recompress` target other than
    /// `Identity`, and every templated block — which names its own
    /// segment's table, decodes against it, and is never copied to another
    /// segment. The frames re-encoded under the target are counted into
    /// `frames_by_codec` by the block they are stored as; the templated
    /// blocks a merge or retention rewrite codes anew are not, so a pass
    /// without a target counts none. The segment is v4, its table ahead
    /// of the frames, when it comes out smaller so; otherwise v3, without
    /// templates. Segments are read from `sources` in the store `dir`; the
    /// frames of a segment already scanned are not CRC-checked again.
    #[allow(clippy::too_many_arguments)]
    fn code(
        &mut self,
        dir: &Path,
        lane: u32,
        sources: Sources<'_>,
        target_seq: u32,
        run: &[SegmentPlan],
        windows: &[WindowEntry],
        recompress: Option<CodecId>,
        frames_by_codec: &mut [u64; CodecId::ALL.len()],
    ) -> Result<(u8, Vec<u8>, Vec<WindowEntry>), TraceError> {
        let RunCoder {
            coder,
            carried,
            frames,
            decoder,
            table,
            frame: scratch,
        } = self;
        coder.clear();
        carried.clear();
        frames.clear();
        let total: u64 = run.iter().map(|plan| plan.meta.committed_bytes).sum();
        for plan in run.iter().filter(|plan| !plan.windows.is_empty()) {
            let read;
            let (path, source, verify_crc) = match sources {
                Sources::Store(packed) => {
                    read = read_segment(dir, lane, plan.meta.seq, packed, None)?;
                    (read.0.as_path(), read.1.as_slice(), true)
                }
                Sources::Scanned(segment) => {
                    debug_assert_eq!(segment.seq, plan.meta.seq);
                    (segment.path.as_path(), segment.bytes.as_slice(), false)
                }
            };
            let head = SegmentHead::parse(source, path, lane, plan.meta.seq)?;
            // Any target but `Identity` stores the smallest block there is.
            let target = recompress.filter(|_| plan.recompress);
            for &position in &plan.windows {
                let mut entry = windows[position];
                let frame = head.frame(source, lane, &entry, verify_crc)?;
                // Codec and raw length are the file's.
                entry.codec = frame.codec.as_u8();
                entry.raw_len = frame.raw_len;
                let block = &source[frame.block.clone()];
                let recode = if frame.codec == CodecId::Templated {
                    Some(decoder.payload(&head, source, &frame, entry.start_ns)?)
                } else {
                    target
                        .filter(|target| *target != CodecId::Identity)
                        .map(|_| block)
                };
                let block = match recode {
                    Some(payload) => {
                        let context = FrameContext::framed(entry.start_ns, frame.events);
                        RunBlock::Coded {
                            frame: coder.push(context, payload),
                            recompressed: target.is_some(),
                        }
                    }
                    None => {
                        if target.is_some() {
                            frames_by_codec[usize::from(CodecId::Identity.as_u8())] += 1;
                        }
                        carried.extend_from_slice(block);
                        RunBlock::Carried(carried.len() - block.len()..carried.len())
                    }
                };
                frames.push((entry, block));
            }
        }
        coder.finish();
        let block_of = |block: &RunBlock, templated: bool| match *block {
            RunBlock::Carried(ref range) => (None, &carried[range.clone()]),
            RunBlock::Coded {
                frame,
                recompressed,
            } => {
                let (codec, block) = coder.block(frame, templated);
                (Some((codec, recompressed)), block)
            }
        };
        // The segment is weighed by its blocks' sizes: a block the coder
        // has not written is written only if the segment keeps it.
        let len_of = |block: &RunBlock, templated: bool| match *block {
            RunBlock::Carried(ref range) => range.len(),
            RunBlock::Coded { frame, .. } => coder.block_len(frame, templated),
        };
        table.clear();
        let mut templated = false;
        if !coder.table().is_empty() {
            coder.table().encode(table);
            // A templated block only ever replaces a larger one, and a
            // smaller block never lengthens its frame's envelope: blocks
            // that save more than the table section costs settle it. A
            // closer call weighs every frame, with the table and without.
            let saved: usize = frames
                .iter()
                .map(|(_, block)| len_of(block, false) - len_of(block, true))
                .sum();
            templated = saved as u64 > table_section_len(table) || {
                let (mut with, mut without) = (table_section_len(table), 0);
                let mut prev = FramePrev::default();
                for (entry, block) in frames.iter() {
                    with += frame_len(prev, entry, len_of(block, true));
                    without += frame_len(prev, entry, len_of(block, false));
                    prev = FramePrev::after(entry);
                }
                with < without
            };
        }

        let all_v1 = run
            .iter()
            .all(|plan| plan.meta.version == SEGMENT_VERSION_V1 && !plan.recompress);
        let version = if all_v1 {
            SEGMENT_VERSION_V1
        } else if templated {
            SEGMENT_VERSION_V4
        } else {
            SEGMENT_VERSION_V3
        };
        let mut merged = Vec::with_capacity(total as usize);
        merged.extend_from_slice(&segment_header(lane, target_seq, version));
        if templated {
            put_table_section(&mut merged, table);
        }
        let mut entries = Vec::with_capacity(frames.len());
        let mut prev = FramePrev::default();
        for (entry, block) in frames.iter() {
            let mut entry = *entry;
            let (codec, block) = block_of(block, templated);
            if let Some((codec, recompressed)) = codec {
                entry.codec = codec.as_u8();
                if recompressed {
                    frames_by_codec[usize::from(codec.as_u8())] += 1;
                }
            }
            entry.segment = target_seq;
            entry.offset = merged.len() as u64;
            entry.len = encode_frame(version, scratch, prev, &entry, block);
            prev = FramePrev::after(&entry);
            merged.extend_from_slice(scratch);
            entries.push(entry);
        }
        Ok((version, merged, entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::frame_end;
    use crate::{LaneWriter, StoreConfig, StoreReader};
    use trace_model::codec::{BinaryEncoder, TraceEncoder};
    use trace_model::{EventSink, EventTypeId, RecordMeta, Timestamp, TraceEvent, WindowId};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "endurance-compact-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn write_run(dir: &std::path::Path, windows: u64, per_segment: u64, close: bool) {
        write_lane_run(dir, 0, windows, per_segment, close);
    }

    fn write_lane_run(
        dir: &std::path::Path,
        lane: u32,
        windows: u64,
        per_segment: u64,
        close: bool,
    ) {
        let config = StoreConfig::default().with_segment_max_windows(per_segment);
        let mut writer = LaneWriter::create(dir, lane, config).unwrap();
        for id in 0..windows {
            let events: Vec<TraceEvent> = (0..8)
                .map(|i| {
                    TraceEvent::new(
                        Timestamp::from_millis(id * 40 + i),
                        EventTypeId::new((i % 3) as u16),
                        id as u32,
                    )
                })
                .collect();
            let mut encoded = Vec::new();
            BinaryEncoder::new().encode(&events, &mut encoded).unwrap();
            let meta = RecordMeta {
                window_id: WindowId::new(id),
                start: Timestamp::from_millis(id * 40),
                end: Timestamp::from_millis((id + 1) * 40),
            };
            writer.record_window(&meta, &events, &encoded).unwrap();
        }
        if close {
            writer.close().unwrap();
        }
    }

    #[test]
    fn a_v1_merge_without_a_target_copies_every_surviving_frame_byte_for_byte() {
        // No retention, and a horizon that empties half of the first
        // segment: each time the one merged segment is a v1 header and the
        // surviving source frames, back to back, exactly as they were.
        for (tag, retention_ns) in [("v1-copy", None), ("v1-copy-retention", Some(290_000_000))] {
            let dir = temp_dir(tag);
            write_run(&dir, 9, 2, true);
            let before = StoreReader::open(&dir).unwrap();
            let cutoff = retention_ns.map_or(0, |retention| 360_000_000 - retention);
            let mut expected = segment_header(0, 0, SEGMENT_VERSION_V1).to_vec();
            for entry in before.lane_windows(0).unwrap() {
                if entry.end_ns > cutoff {
                    let source = std::fs::read(dir.join(segment_file_name(0, entry.segment)));
                    let end = frame_end(SEGMENT_VERSION_V1, entry).unwrap() as usize;
                    expected.extend_from_slice(&source.unwrap()[entry.offset as usize..end]);
                }
            }
            drop(before);

            let mut policy = MaintenancePolicy::merge_below(u64::MAX);
            if let Some(retention) = retention_ns {
                policy = policy.with_retention_ns(retention);
            }
            let report = Compactor::new(&dir, policy).compact().unwrap();
            assert_eq!(report.lanes[0].segments_after, 1, "{tag}");
            let merged = std::fs::read(dir.join(segment_file_name(0, 0))).unwrap();
            assert_eq!(merged, expected, "{tag}");
            let after = StoreReader::open(&dir).unwrap();
            assert!(after.recovery().clean, "{tag}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn merging_preserves_replay_byte_for_byte_and_reopens_clean() {
        let dir = temp_dir("merge");
        write_run(&dir, 9, 2, true); // 5 small segments

        let before = StoreReader::open(&dir).unwrap();
        let events_before = before.lane_events(0).unwrap();
        let bytes_before = before.lane_payload_bytes(0).unwrap();
        let ids_before: Vec<u64> = before
            .lane_windows(0)
            .unwrap()
            .iter()
            .map(|w| w.window_id)
            .collect();
        drop(before);

        let report = Compactor::new(&dir, MaintenancePolicy::merge_below(u64::MAX))
            .compact()
            .unwrap();
        assert_eq!(report.lanes.len(), 1);
        assert_eq!(report.lanes[0].segments_before, 5);
        assert_eq!(report.lanes[0].segments_after, 1);
        assert_eq!(report.merged_runs(), 1);
        assert_eq!(report.windows_dropped(), 0);
        assert!(report.reclaimed_bytes() > 0, "merged headers are reclaimed");

        let after = StoreReader::open(&dir).unwrap();
        assert!(after.recovery().clean, "compaction rewrites the sidecar");
        assert_eq!(after.lane_events(0).unwrap(), events_before);
        assert_eq!(after.lane_payload_bytes(0).unwrap(), bytes_before);
        let ids_after: Vec<u64> = after
            .lane_windows(0)
            .unwrap()
            .iter()
            .map(|w| w.window_id)
            .collect();
        assert_eq!(ids_after, ids_before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_drops_old_windows_and_keeps_the_rest_intact() {
        let dir = temp_dir("retention");
        write_run(&dir, 10, 3, true); // windows end at 40..400 ms

        let before = StoreReader::open(&dir).unwrap();
        let all = before.lane_windows(0).unwrap().to_vec();
        drop(before);

        // Keep the trailing 160 ms: newest end is 400 ms, cutoff 240 ms,
        // windows ending at <= 240 ms (ids 0..=5) are dropped.
        let policy = MaintenancePolicy::merge_below(u64::MAX).with_retention_ns(160 * 1_000_000);
        let report = Compactor::new(&dir, policy).compact().unwrap();
        assert_eq!(report.windows_dropped(), 6);

        let after = StoreReader::open(&dir).unwrap();
        assert!(after.recovery().clean);
        let kept: Vec<u64> = after
            .lane_windows(0)
            .unwrap()
            .iter()
            .map(|w| w.window_id)
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
        for entry in after.lane_windows(0).unwrap() {
            let original = all.iter().find(|w| w.window_id == entry.window_id).unwrap();
            assert_eq!(entry.events, original.events);
            assert_eq!(entry.start_ns, original.start_ns);
            assert_eq!(entry.end_ns, original.end_ns);
        }
        // A second pass is a no-op.
        let again = Compactor::new(&dir, policy).compact().unwrap();
        assert!(again.is_noop(), "{again}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tails_are_truncated_and_the_store_reopens_clean() {
        let dir = temp_dir("torn");
        write_run(&dir, 4, 2, false); // crash: no close, 2 segments
                                      // Append a torn half-frame to the last segment.
        let last = dir.join("lane0000-000001.seg");
        let mut bytes = std::fs::read(&last).unwrap();
        bytes.extend_from_slice(&[0xAB; 9]);
        std::fs::write(&last, bytes).unwrap();

        let report = Compactor::new(&dir, MaintenancePolicy::merge_below(u64::MAX))
            .compact()
            .unwrap();
        assert_eq!(report.lanes[0].torn_bytes_truncated, 9);

        let after = StoreReader::open(&dir).unwrap();
        assert!(after.recovery().clean, "compaction leaves a clean store");
        assert_eq!(after.lane_windows(0).unwrap().len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_pack_that_fails_before_its_commit_supersedes_nothing() {
        let dir = temp_dir("pack-fails");
        for lane in 0..3 {
            write_lane_run(&dir, lane, 6, 2, true);
        }
        let packing =
            MaintenancePolicy::merge_below(u64::MAX).with_recompress(CodecId::DeltaVarint);
        let report = Compactor::new(&dir, packing).compact().unwrap();
        assert_eq!(
            (report.packs_written, report.lanes_packed),
            (1, 3),
            "{report}"
        );
        let replay = |dir: &std::path::Path| {
            let reader = StoreReader::open(dir).unwrap();
            assert!(reader.recovery().clean, "{:?}", reader.recovery());
            (0..3)
                .map(|lane| reader.lane_events(lane).unwrap())
                .collect::<Vec<_>>()
        };
        let before = replay(&dir);

        // Retention rewrites every lane of pack 0 into pack 1, whose temp
        // file cannot be created: a directory took its name after the pass
        // listed the store. Pack 0 stays the only copy of every lane.
        let retention = MaintenancePolicy::disabled().with_retention_ns(160_000_000);
        let compactor = Compactor::new(&dir, retention);
        let listing = list_store_dir(&dir, None).unwrap();
        let blocker = dir.join(format!("{}.compact.tmp", pack_file_name(1)));
        std::fs::create_dir(&blocker).unwrap();
        assert!(compactor.pass_over(listing, None).is_err());
        std::fs::remove_dir(&blocker).unwrap();
        assert!(dir.join(pack_file_name(0)).exists());
        assert!(dir.join(pack_index_file_name(0)).exists());
        assert_eq!(replay(&dir), before);

        let report = compactor.compact().unwrap();
        assert_eq!((report.packs_written, report.windows_dropped()), (1, 3 * 2));
        let listing = list_store_dir(&dir, None).unwrap();
        let packs: Vec<u32> = listing.packs.iter().map(|pack| pack.id).collect();
        assert_eq!(packs, [1]);
        assert!(listing.pack_leftovers.is_empty());
        for (lane, files) in &listing.lanes {
            let own = !files.seqs.is_empty() || !files.superseded.is_empty() || files.sidecar;
            assert!(!own, "lane {lane} kept a file of its own: {files:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_corrupt_lane_does_not_abort_sibling_lane_merges() {
        // Same scenario through the serial path and the thread pool: the
        // failure must stay scoped to the lane that owns it either way.
        for workers in [1usize, 4] {
            let dir = temp_dir(&format!("sibling-isolation-{workers}"));
            write_lane_run(&dir, 0, 6, 2, false); // 3 segments, no sidecar
            write_lane_run(&dir, 1, 6, 2, false);
            // Bad magic is cross-file corruption, not a torn write: lane
            // 0's pass must surface it as an error rather than truncate.
            let path = dir.join("lane0000-000000.seg");
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[0] ^= 0xFF;
            std::fs::write(&path, bytes).unwrap();

            let policy = MaintenancePolicy::merge_below(u64::MAX).with_compact_workers(workers);
            let err = Compactor::new(&dir, policy).compact().unwrap_err();
            assert!(matches!(err, TraceError::Decode { .. }), "{err}");

            // Lane 1 was still maintained: its three segments merged.
            assert!(dir.join("lane0001-000000.seg").exists());
            assert!(
                !dir.join("lane0001-000001.seg").exists(),
                "workers={workers}: sibling lane must merge despite lane 0 failing"
            );
            // Lane 0 is exactly as the corruption left it.
            assert!(dir.join("lane0000-000001.seg").exists());
            assert!(dir.join("lane0000-000002.seg").exists());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Replicates the on-disk state of a merge crash: dir holds the old
    /// segments, `merged` already renamed over the first one, the journal
    /// still present, the replaced files not yet deleted.
    fn stage_interrupted_merge(dir: &std::path::Path, merged_from: &std::path::Path) {
        let merged = std::fs::read(merged_from.join("lane0000-000000.seg")).unwrap();
        let manifest = CompactionManifest {
            schema: MANIFEST_SCHEMA,
            lane: 0,
            target_seq: 0,
            target_bytes: merged.len() as u64,
            target_crc: crc32(&merged),
            replaced_seqs: vec![1, 2],
        };
        std::fs::write(dir.join("lane0000-000000.seg"), merged).unwrap();
        std::fs::write(
            dir.join(manifest_file_name(0)),
            serde_json::to_string(&manifest).unwrap(),
        )
        .unwrap();
    }

    #[test]
    fn a_committed_but_unfinished_merge_never_duplicates_windows() {
        // Two identical stores; one is compacted fully to obtain the
        // consolidated segment the crashed pass would have committed.
        let dir = temp_dir("crash-committed");
        let donor = temp_dir("crash-committed-donor");
        write_run(&dir, 6, 2, true); // 3 segments
        write_run(&donor, 6, 2, true);
        let clean = StoreReader::open(&donor).unwrap();
        let expected_events = clean.lane_events(0).unwrap();
        drop(clean);
        Compactor::new(&donor, MaintenancePolicy::merge_below(u64::MAX))
            .compact()
            .unwrap();
        stage_interrupted_merge(&dir, &donor);

        // A read-only reopen interprets the journal: the replaced
        // segments are ignored, nothing is replayed twice.
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.lane_events(0).unwrap(), expected_events);
        assert_eq!(reader.lane_windows(0).unwrap().len(), 6);
        assert!(
            dir.join("lane0000-000001.seg").exists(),
            "the reader must not mutate the store"
        );
        drop(reader);

        // A resuming writer finishes the interrupted deletions.
        let writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
        assert_eq!(writer.recovery().windows, 6);
        drop(writer);
        assert!(!dir.join("lane0000-000001.seg").exists());
        assert!(!dir.join("lane0000-000002.seg").exists());
        assert!(!dir.join(manifest_file_name(0)).exists());
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.lane_events(0).unwrap(), expected_events);

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&donor).ok();
    }

    #[test]
    fn a_never_landed_merge_is_rolled_back_to_the_old_layout() {
        let dir = temp_dir("crash-rollback");
        write_run(&dir, 6, 2, true);
        let before = StoreReader::open(&dir).unwrap();
        let expected_events = before.lane_events(0).unwrap();
        drop(before);
        // The journal exists but the consolidated segment never replaced
        // the target (its length/CRC do not match the manifest).
        let manifest = CompactionManifest {
            schema: MANIFEST_SCHEMA,
            lane: 0,
            target_seq: 0,
            target_bytes: 999_999,
            target_crc: 0xDEAD_BEEF,
            replaced_seqs: vec![1, 2],
        };
        std::fs::write(
            dir.join(manifest_file_name(0)),
            serde_json::to_string(&manifest).unwrap(),
        )
        .unwrap();

        // Readers ignore the journal; the old layout is intact.
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.lane_events(0).unwrap(), expected_events);
        drop(reader);

        // The compactor rolls the journal back, then compacts normally.
        let report = Compactor::new(&dir, MaintenancePolicy::merge_below(u64::MAX))
            .compact()
            .unwrap();
        assert_eq!(report.merged_runs(), 1);
        assert!(!dir.join(manifest_file_name(0)).exists());
        let reader = StoreReader::open(&dir).unwrap();
        assert!(reader.recovery().clean);
        assert_eq!(reader.lane_events(0).unwrap(), expected_events);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sidecar_temps_are_swept_by_writer_and_compactor_but_not_by_readers() {
        // A crash inside `write_sidecar`, between the temp write and the
        // rename — this build's, or an earlier build's JSON one.
        let dir = temp_dir("sidecar-temp");
        write_run(&dir, 4, 2, true);
        let temps = [
            dir.join("lane0000.idx.tmp"),
            dir.join("lane0000.idx.json.tmp"),
        ];
        let neighbour = dir.join("lane00001.idx.tmp"); // not a name the store writes
        let plant = || {
            for temp in &temps {
                std::fs::write(temp, b"EIDX\x03").unwrap();
            }
        };
        plant();
        std::fs::write(&neighbour, b"x").unwrap();

        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.lane_windows(0).unwrap().len(), 4);
        drop(reader);
        for temp in &temps {
            assert!(temp.exists(), "the reader must not mutate the store");
        }

        drop(LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap());
        for temp in &temps {
            assert!(!temp.exists(), "a resuming writer sweeps its sidecar temps");
        }

        plant();
        Compactor::new(&dir, MaintenancePolicy::merge_below(u64::MAX))
            .compact()
            .unwrap();
        for temp in &temps {
            assert!(!temp.exists(), "the compactor sweeps sidecar temps");
        }
        assert!(neighbour.exists());
        assert_eq!(
            StoreReader::open(&dir)
                .unwrap()
                .lane_windows(0)
                .unwrap()
                .len(),
            4
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leftovers_of_a_lane_without_segments_are_recovered() {
        let dir = temp_dir("segmentless");
        write_run(&dir, 4, 2, true);
        // Lane 5's segments are gone (retention dropped them all), the
        // journal and temp files of a crashed merge are not; lane 6 never
        // got further than a torn temp.
        let manifest = CompactionManifest {
            schema: MANIFEST_SCHEMA,
            lane: 5,
            target_seq: 0,
            target_bytes: 64,
            target_crc: 1,
            replaced_seqs: vec![1],
        };
        let leftovers = [
            manifest_file_name(5),
            "lane0005-000000.seg.compact.tmp".to_string(),
            "lane0006.compact.json.compact.tmp".to_string(),
        ];
        std::fs::write(
            dir.join(&leftovers[0]),
            serde_json::to_string(&manifest).unwrap(),
        )
        .unwrap();
        std::fs::write(dir.join(&leftovers[1]), b"torn").unwrap();
        std::fs::write(dir.join(&leftovers[2]), b"{").unwrap();

        assert_eq!(StoreReader::open(&dir).unwrap().lane_ids(), vec![0]);
        let report = Compactor::new(&dir, MaintenancePolicy::merge_below(u64::MAX))
            .compact()
            .unwrap();
        let lanes: Vec<u32> = report.lanes.iter().map(|lane| lane.lane).collect();
        assert_eq!(lanes, vec![0], "a lane without segments gets no report");
        for name in &leftovers {
            assert!(!dir.join(name).exists(), "{name} must be swept");
        }
        assert!(
            !dir.join("lane0005.idx").exists() && !dir.join("lane0006.idx").exists(),
            "recovery alone writes no sidecar"
        );
        assert_eq!(StoreReader::open(&dir).unwrap().lane_ids(), vec![0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_pass_that_changes_nothing_writes_the_sidecars_it_could_not_trust() {
        let dir = temp_dir("noop-untrusted");
        write_run(&dir, 4, 4, false); // crash: no sidecar
        let pass = || {
            let report = Compactor::new(&dir, MaintenancePolicy::merge_below(1))
                .compact()
                .unwrap();
            assert!(report.is_noop(), "{report}");
            assert!(StoreReader::open(&dir).unwrap().recovery().clean);
        };
        pass();
        let idx = dir.join("lane0000.idx");
        let written = std::fs::read(&idx).unwrap();
        let mut damaged = written.clone();
        damaged[20] ^= 1;
        std::fs::write(&idx, damaged).unwrap();
        pass();
        assert_eq!(std::fs::read(&idx).unwrap(), written);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_policy_is_a_noop() {
        let dir = temp_dir("noop");
        write_run(&dir, 4, 1, true);
        let report = Compactor::new(&dir, MaintenancePolicy::disabled())
            .compact()
            .unwrap();
        assert!(report.is_noop());
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.lane_windows(0).unwrap().len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_policy_does_not_mutate_a_crashed_store() {
        let dir = temp_dir("noop-crashed");
        write_run(&dir, 4, 2, false); // crash: no sidecar
        let last = dir.join("lane0000-000001.seg");
        let mut bytes = std::fs::read(&last).unwrap();
        bytes.extend_from_slice(&[0xAB; 9]); // torn tail
        std::fs::write(&last, &bytes).unwrap();

        let report = Compactor::new(&dir, MaintenancePolicy::disabled())
            .compact()
            .unwrap();
        assert!(report.is_noop());
        // The crash evidence is preserved: the torn tail bytes are still
        // there and no sidecar was written.
        assert_eq!(std::fs::read(&last).unwrap(), bytes);
        assert!(!dir.join("lane0000.idx").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
