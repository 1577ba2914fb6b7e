//! The block codec: how a frame's payload (the recorder's encoded bytes)
//! is stored as a smaller block, and read back.
//!
//! The durable store frames every recorded window as `[meta | payload]`,
//! where the payload is the recorder's encoded bytes (the compact `ETRC`
//! block of [`super::BinaryEncoder`]). A lane's writer stores payloads
//! verbatim; the store's compaction pass is what compresses them, into
//! one of five block formats, each named by the [`CodecId`] its frame
//! stores:
//!
//! * [`CodecId::Identity`] (id 0) — the stored block *is* the payload.
//! * [`CodecId::DeltaVarint`] (id 1) — canonical `ETRC` payloads
//!   re-encoded into a columnar delta + LEB128-varint layout (the `EDV`
//!   block format) that exploits the monotone structure of trace events:
//!   timestamp deltas, a `(type, severity)` dictionary with nibble-packed
//!   tokens, and per-type lag-`k` payload delta columns with optional
//!   run-length encoding.
//! * [`CodecId::LzBlock`] (id 2) — read-only: the LZ77 blocks (the
//!   vendored [`lzb`] crate's format) of stores written by earlier builds.
//!   Nothing writes one any more, and the id is never reused.
//! * [`CodecId::Packed`] (id 3) — one varint row per event of a canonical
//!   `ETRC` payload, `(timestamp delta, type << 2 | severity, payload)`,
//!   and nothing else: the window start the first timestamp is coded
//!   against and the event count come from the frame's meta, handed over
//!   as a [`FrameContext`]. The block for short windows, where `EDV`'s
//!   dictionary and column headers cost what they save.
//! * [`CodecId::Templated`] (id 4) — a window as the template of its shape
//!   in its segment's [`TemplateTable`], which the context carries, plus
//!   the rows whose payload differs and the packed rows' time column
//!   ([`super::template`]).
//!
//! The set is closed, so one concrete [`BlockCodec`] reads them all: each
//! of its operations is one `match` on the frame's id. Which block a frame
//! is stored as is chosen in one place, [`BlockChooser`], the only code
//! that knows both the `EDV` and the packed layout: the smallest of the
//! `EDV` block, the packed rows and the payload itself. One pass over the
//! payload sizes them all, and `EDV`'s encoder runs only where the bytes
//! ahead of its columns (its size floor) do not already lose to the rows.
//! A segment's [`super::SegmentCoder`] runs it on every frame and weighs
//! the templated block beside its choice.
//!
//! Every block is *lossless at the byte level*: restoring a stored block
//! reproduces the original payload byte for byte, so replay of a
//! compressed store is indistinguishable from replay of an uncompressed
//! one. `docs/FORMAT.md` in the repository root is the normative
//! specification of the `EDV`, `LZB`, packed and templated block layouts.
//!
//! ```rust
//! use trace_model::codec::{BinaryEncoder, CodecId, TraceEncoder};
//! use trace_model::{TraceEvent, Timestamp, EventTypeId};
//!
//! # fn main() -> Result<(), trace_model::TraceError> {
//! let events: Vec<TraceEvent> = (0..200)
//!     .map(|i| TraceEvent::new(Timestamp::from_micros(i * 500), EventTypeId::new(1), i as u32))
//!     .collect();
//! let mut payload = Vec::new();
//! BinaryEncoder::new().encode(&events, &mut payload)?;
//!
//! let mut codec = CodecId::DeltaVarint.new_codec();
//! let mut block = Vec::new();
//! assert!(codec.compress(&payload, &mut block)?);
//! assert!(block.len() < payload.len());
//!
//! // The stored block reproduces the payload byte for byte...
//! let mut restored = Vec::new();
//! codec.decompress(&block, payload.len(), &mut restored)?;
//! assert_eq!(restored, payload);
//!
//! // ...and replay can decode events straight from it, allocation-free.
//! let (mut scratch, mut replayed) = (Vec::new(), Vec::new());
//! codec.decode_events(&block, payload.len(), &mut scratch, &mut replayed)?;
//! assert_eq!(replayed, events);
//! # Ok(())
//! # }
//! ```

use std::fmt;

use super::binary::{decode_canonical, decode_canonical_with, header_len};
use super::template::{decode_templated, TemplateTable};
use super::varint::{unzigzag, zigzag};
use super::{
    decode_u64, encode_u64, take_minimal_u64, varint_len, BinaryDecoder, BinaryEncoder,
    TraceDecoder, TraceEncoder,
};
use crate::{EventTypeId, Severity, Timestamp, TraceError, TraceEvent};

/// Identifier of a block format, stored in every frame of a format-v2,
/// -v3 and -v4 segment.
///
/// The numeric values are part of the on-disk format (see
/// `docs/FORMAT.md`) and must never be reused for a different algorithm.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
#[repr(u8)]
pub enum CodecId {
    /// The stored block is the payload, verbatim.
    #[default]
    Identity = 0,
    /// Columnar delta + varint re-encoding of canonical `ETRC` payloads.
    DeltaVarint = 1,
    /// LZ77-style block compression: decoded, no longer written.
    LzBlock = 2,
    /// Varint rows of canonical `ETRC` events, coded against the frame's
    /// meta.
    Packed = 3,
    /// A window shape of the segment's template table, the rows whose
    /// payload differs from it, and the time column.
    Templated = 4,
}

impl CodecId {
    /// Every defined codec id, in wire-value order.
    pub const ALL: [CodecId; 5] = [
        CodecId::Identity,
        CodecId::DeltaVarint,
        CodecId::LzBlock,
        CodecId::Packed,
        CodecId::Templated,
    ];

    /// Decodes a codec id from its wire value.
    pub const fn from_u8(raw: u8) -> Option<CodecId> {
        match raw {
            0 => Some(CodecId::Identity),
            1 => Some(CodecId::DeltaVarint),
            2 => Some(CodecId::LzBlock),
            3 => Some(CodecId::Packed),
            4 => Some(CodecId::Templated),
            _ => None,
        }
    }

    /// The wire value of this codec id.
    pub const fn as_u8(self) -> u8 {
        self as u8
    }

    /// Stable lowercase name, used in reports and artifacts.
    pub const fn name(self) -> &'static str {
        match self {
            CodecId::Identity => "identity",
            CodecId::DeltaVarint => "delta-varint",
            CodecId::LzBlock => "lz-block",
            CodecId::Packed => "packed",
            CodecId::Templated => "templated",
        }
    }

    /// A block codec whose context-free methods ([`BlockCodec::compress`],
    /// [`BlockCodec::decompress`], [`BlockCodec::decode_events`]) code
    /// under this id.
    pub fn new_codec(self) -> BlockCodec {
        BlockCodec {
            id: self,
            scratch: BlockChooser::default(),
        }
    }
}

/// The table of every frame outside a format-v4 segment.
const NO_TEMPLATES: &TemplateTable = &TemplateTable::EMPTY;

/// What a frame's meta, and its segment, tell the codec about the window
/// a block holds.
///
/// Packed and templated blocks code their first row against `start_ns`
/// and store no event count, and a templated block names its window's
/// shape in `templates`. Every block of every id is held to `events`, the
/// count the frame claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameContext<'a> {
    /// The window's start, in nanoseconds of trace time.
    pub start_ns: u64,
    /// The window's event count as the frame's meta claims it — what a
    /// framed decode holds the block to — or `None` outside a frame.
    pub events: Option<u32>,
    /// The template table of the frame's segment: empty outside a
    /// format-v4 segment.
    pub templates: &'a TemplateTable,
}

impl FrameContext<'static> {
    /// The context of no frame: base 0, no count to check and no
    /// templates. The context-free [`BlockCodec`] methods run under it.
    pub const DETACHED: FrameContext<'static> = FrameContext {
        start_ns: 0,
        events: None,
        templates: NO_TEMPLATES,
    };

    /// The context of a frame whose meta says the window starts at
    /// `start_ns` and holds `events` events, in a segment without
    /// templates.
    pub const fn framed(start_ns: u64, events: u32) -> Self {
        FrameContext {
            start_ns,
            events: Some(events),
            templates: NO_TEMPLATES,
        }
    }
}

impl<'a> FrameContext<'a> {
    /// The same frame in a segment whose template table is `templates`.
    pub const fn with_templates<'t>(self, templates: &'t TemplateTable) -> FrameContext<'t> {
        FrameContext {
            start_ns: self.start_ns,
            events: self.events,
            templates,
        }
    }

    /// Holds a block that decoded to `decoded` events to the count the
    /// frame claims.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Decode`] when the frame claims another count;
    /// a detached context checks nothing.
    pub fn check_events(self, decoded: usize) -> Result<(), TraceError> {
        match self.events {
            Some(claimed) if claimed as usize != decoded => Err(TraceError::Decode {
                offset: 0,
                reason: format!("the frame claims {claimed} events but its block holds {decoded}"),
            }),
            _ => Ok(()),
        }
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The block codec: decodes and restores a block of any [`CodecId`], and
/// compresses a payload outside any frame.
///
/// One value reads every frame of a segment, whatever its id: the framed
/// operations, [`BlockCodec::decode_block`] and
/// [`BlockCodec::restore_block`], take the id the frame names, and each is
/// one `match` on it. A decode is all or nothing — on any error, `out` is
/// left as it was — and holds the block to the frame's claimed event
/// count and raw length, for every id. The codec keeps scratch buffers
/// across calls (its methods are `&mut self` so that hot replay loops
/// reuse them), but a call's outcome depends only on its arguments.
///
/// The context-free methods, [`BlockCodec::compress`],
/// [`BlockCodec::decompress`] and [`BlockCodec::decode_events`], code under
/// the id the codec was made for ([`CodecId::new_codec`]) and
/// [`FrameContext::DETACHED`], for blocks that live outside a frame. The
/// frames a store writes get their blocks from [`BlockChooser`] and
/// [`super::SegmentCoder`], never from `compress`.
#[derive(Debug, Default)]
pub struct BlockCodec {
    /// The id of the context-free methods.
    id: CodecId,
    /// The chooser's buffers: its one pass over a payload, whose events
    /// are what a structured block restores its payload from, and
    /// `EDV`'s columns.
    scratch: BlockChooser,
}

impl BlockCodec {
    /// The id the context-free methods code under.
    pub fn id(&self) -> CodecId {
        self.id
    }

    /// Appends the events of the stored `block` of the frame `context`
    /// describes, under the frame's `codec`, to `out` and returns how many:
    /// the replay fast path, which reads events straight from the block
    /// and builds no payload but an `LZB` one, in `scratch`.
    ///
    /// # Errors
    ///
    /// [`TraceError::Decode`] — with `out` as it was — when the block is
    /// malformed, does not hold the events the context claims, or holds
    /// events whose `ETRC` payload is not `raw_len` bytes long.
    pub fn decode_block(
        &mut self,
        codec: CodecId,
        context: FrameContext<'_>,
        block: &[u8],
        raw_len: usize,
        scratch: &mut Vec<u8>,
        out: &mut Vec<TraceEvent>,
    ) -> Result<usize, TraceError> {
        let first = out.len();
        let decoded = match codec {
            CodecId::Identity => {
                identity_length(block, raw_len).and_then(|()| decode_payload(context, block, out))
            }
            CodecId::DeltaVarint => self.scratch.edv.parse(context, block, raw_len, out),
            CodecId::LzBlock => {
                scratch.clear();
                lzb_restore(block, raw_len, scratch)
                    .and_then(|()| decode_payload(context, scratch, out))
            }
            CodecId::Packed => parse_packed(context, block, raw_len, out),
            CodecId::Templated => decode_templated(context, block, raw_len, out),
        };
        if decoded.is_err() {
            out.truncate(first);
        }
        decoded
    }

    /// Restores the payload of the stored `block` of the frame `context`
    /// describes, under the frame's `codec`, appending exactly `raw_len`
    /// bytes to `out`.
    ///
    /// An identity or `LZB` block is restored without decoding its events,
    /// so only its length is checked; every other block is decoded as
    /// [`BlockCodec::decode_block`] decodes it, and its events are encoded
    /// again.
    ///
    /// # Errors
    ///
    /// [`TraceError::Decode`] — with `out` as it was — when the block is
    /// malformed or does not restore exactly `raw_len` bytes, and (`EDV`,
    /// packed, templated) does not hold the events the context claims.
    pub fn restore_block(
        &mut self,
        codec: CodecId,
        context: FrameContext<'_>,
        block: &[u8],
        raw_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), TraceError> {
        let start = out.len();
        let BlockChooser { rows, edv } = &mut self.scratch;
        let events = &mut rows.events;
        events.clear();
        // A structured block's events are held to `raw_len` as they are
        // decoded, so they encode to exactly that many bytes.
        let restored = match codec {
            CodecId::Identity => {
                identity_length(block, raw_len).map(|()| out.extend_from_slice(block))
            }
            CodecId::DeltaVarint => edv
                .parse(context, block, raw_len, events)
                .and_then(|_| BinaryEncoder::new().encode(events, out)),
            CodecId::LzBlock => lzb_restore(block, raw_len, out),
            CodecId::Packed => parse_packed(context, block, raw_len, events)
                .and_then(|_| BinaryEncoder::new().encode(events, out)),
            CodecId::Templated => decode_templated(context, block, raw_len, events)
                .and_then(|_| BinaryEncoder::new().encode(events, out)),
        };
        if restored.is_err() {
            out.truncate(start);
        }
        restored
    }

    /// Compresses `payload` outside any frame into a block of the codec's
    /// id, appended to `out`: the `EDV` block of a canonical `ETRC`
    /// payload, the payload itself for identity, and packed rows coded
    /// against a window start of 0.
    ///
    /// Returns `Ok(false)` — with `out` unchanged — when the id cannot
    /// usefully represent this payload: it is not canonical `ETRC`, its
    /// block would not be smaller (identity's aside), or the id is `LZB`
    /// or templated, which nothing writes this way. A `true` return
    /// guarantees that [`BlockCodec::decompress`] reproduces `payload`
    /// exactly.
    ///
    /// # Errors
    ///
    /// None: an unsuitable payload is the `Ok(false)` case.
    pub fn compress(&mut self, payload: &[u8], out: &mut Vec<u8>) -> Result<bool, TraceError> {
        let BlockChooser { rows, edv } = &mut self.scratch;
        Ok(match self.id {
            CodecId::Identity => {
                out.extend_from_slice(payload);
                true
            }
            // Only canonical ETRC payloads are re-encoded: a payload with,
            // say, overlong varints decodes fine but would not survive the
            // round trip — refuse it instead of corrupting it.
            CodecId::DeltaVarint => {
                decode_canonical(payload, &mut rows.events)
                    && edv.encode_events(&rows.events, payload.len(), out)
            }
            CodecId::Packed => {
                let smaller = rows
                    .scan(0, payload)
                    .is_some_and(|rows| rows < payload.len());
                if smaller {
                    rows.put_rows(out);
                }
                smaller
            }
            CodecId::LzBlock | CodecId::Templated => false,
        })
    }

    /// [`BlockCodec::restore_block`] of a block of the codec's id outside
    /// any frame.
    ///
    /// # Errors
    ///
    /// As [`BlockCodec::restore_block`].
    pub fn decompress(
        &mut self,
        block: &[u8],
        raw_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), TraceError> {
        self.restore_block(self.id, FrameContext::DETACHED, block, raw_len, out)
    }

    /// [`BlockCodec::decode_block`] of a block of the codec's id outside
    /// any frame.
    ///
    /// # Errors
    ///
    /// As [`BlockCodec::decode_block`].
    pub fn decode_events(
        &mut self,
        block: &[u8],
        raw_len: usize,
        scratch: &mut Vec<u8>,
        out: &mut Vec<TraceEvent>,
    ) -> Result<usize, TraceError> {
        self.decode_block(
            self.id,
            FrameContext::DETACHED,
            block,
            raw_len,
            scratch,
            out,
        )
    }
}

/// An identity block is its payload: exactly `raw_len` bytes.
fn identity_length(block: &[u8], raw_len: usize) -> Result<(), TraceError> {
    if block.len() == raw_len {
        return Ok(());
    }
    Err(TraceError::Decode {
        offset: 0,
        reason: format!(
            "identity block is {} bytes but the frame says {raw_len}",
            block.len()
        ),
    })
}

/// Appends the events of the `ETRC` payload `bytes` to `out`, held to the
/// count the frame claims.
fn decode_payload(
    context: FrameContext<'_>,
    bytes: &[u8],
    out: &mut Vec<TraceEvent>,
) -> Result<usize, TraceError> {
    let decoded = BinaryDecoder::new().decode_into(bytes, out)?;
    context.check_events(decoded)?;
    Ok(decoded)
}

/// Restores the payload of an `LZB` block, appending `raw_len` bytes to
/// `out` (the vendored [`lzb`] decoder).
fn lzb_restore(block: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<(), TraceError> {
    lzb::decompress(block, raw_len, out).map_err(|error| TraceError::Decode {
        offset: 0,
        reason: format!("LZB block: {error}"),
    })
}

/// Maximum lag the per-type payload predictor may use (audio chunk
/// indices cycle with the tick period, so small lags capture them).
const EDV_MAX_LAG: usize = 8;
/// Maximum `(type, severity)` dictionary size; larger windows are refused
/// (the caller falls back to identity).
const EDV_MAX_DICT: usize = 255;
/// Payload column scheme: one zigzag lag-delta varint per value.
const EDV_SCHEME_PLAIN: u8 = 0;
/// Payload column scheme: run-length encoded (delta, run) pairs.
const EDV_SCHEME_RLE: u8 = 1;

/// Lag-`k` predecessor of `vals[i]` (a virtual zero before the start).
#[inline]
fn lag_prev(vals: &[u32], i: usize, k: usize) -> i64 {
    if i >= k {
        i64::from(vals[i - k])
    } else {
        0
    }
}

fn edv_error(offset: usize, reason: impl Into<String>) -> TraceError {
    TraceError::Decode {
        offset,
        reason: format!("EDV block: {}", reason.into()),
    }
}

/// The `EDV` block layout (id 1): its encoder, its decoder, and the
/// buffers both reuse across frames.
///
/// Only *canonical* `ETRC` payloads — byte sequences that
/// [`BinaryEncoder`] would itself produce for some event batch — are
/// encoded; anything else is stored verbatim. That restriction is what
/// lets the block round-trip payloads byte for byte while actually
/// re-encoding them: the stored block holds the *events*, in a columnar
/// layout, and restoring it re-encodes them through the canonical
/// encoder.
///
/// The block layout (normative spec in `docs/FORMAT.md`):
///
/// ```text
/// varint  event count            (0 = empty batch, block ends here)
/// varint  first timestamp (ns, absolute)
/// varints timestamp deltas       (count - 1 of them, non-negative)
/// varint  dictionary length D    (1..=255 distinct (type, sev) pairs)
/// D x (varint type, byte severity)
/// tokens: per-event dictionary indices —
///         D == 1  -> absent
///         D <= 16 -> ceil(count / 2) bytes, low nibble first
///         else    -> count varints
/// per distinct type, in dictionary order:
///         byte scheme (0 plain | 1 RLE), byte lag k (1..=8), then
///         plain: one zigzag lag-k payload delta varint per value
///         RLE:   (zigzag delta varint, run varint) pairs
/// ```
#[derive(Debug, Default)]
struct DeltaVarintCodec {
    /// Distinct `(type, severity)` pairs of the window, in first-seen order.
    dict: Vec<(u16, Severity)>,
    /// Distinct types, in first-seen (dictionary) order.
    types: Vec<u16>,
    /// Per dictionary entry, the index of its type within `types` — the
    /// per-event type resolution on both the encode and decode paths.
    type_of_token: Vec<usize>,
    /// Per-distinct-type payload value columns (pooled).
    columns: Vec<Vec<u32>>,
    /// Per-event dictionary indices.
    tokens: Vec<u8>,
    /// Decoded timestamps (pooled).
    ts: Vec<u64>,
    /// Per-type value counts and assembly cursors (pooled).
    counts: Vec<usize>,
    cursors: Vec<usize>,
}

impl DeltaVarintCodec {
    /// Splits `events` into dictionary, tokens and per-type columns.
    /// Returns `false` when the dictionary would overflow.
    fn build_columns(&mut self, events: &[TraceEvent]) -> bool {
        self.dict.clear();
        self.types.clear();
        self.type_of_token.clear();
        self.tokens.clear();
        for column in &mut self.columns {
            column.clear();
        }
        for ev in events {
            let key = (ev.event_type.as_u16(), ev.severity);
            // Windows hold a few pairs: scanning them beats hashing every
            // event's (docs/PERFORMANCE.md).
            let token = match self.dict.iter().position(|&entry| entry == key) {
                Some(at) => at,
                None => {
                    if self.dict.len() >= EDV_MAX_DICT {
                        return false;
                    }
                    let at = self.dict.len();
                    self.dict.push(key);
                    // New dictionary entry: resolve its type index once.
                    let type_at = match self.types.iter().position(|&ty| ty == key.0) {
                        Some(at) => at,
                        None => {
                            self.types.push(key.0);
                            if self.columns.len() < self.types.len() {
                                self.columns.push(Vec::new());
                            }
                            self.types.len() - 1
                        }
                    };
                    self.type_of_token.push(type_at);
                    at
                }
            };
            self.tokens.push(token as u8);
            self.columns[self.type_of_token[token]].push(ev.payload);
        }
        true
    }

    /// Encodes one payload column with the cheapest `(scheme, lag)` pair.
    ///
    /// Candidates are *measured*, not materialised: every `(scheme, lag)`
    /// combination used to be fully encoded into a scratch buffer just to
    /// learn its size; [`Self::measure_column_as`] computes the same size
    /// without writing a byte, and only the winner is encoded — straight
    /// into `out`. The iteration order and the strict `<` comparison are
    /// unchanged, so the selected pair (and therefore the block bytes)
    /// are identical to what the materialising encoder produced.
    fn encode_column(vals: &[u32], out: &mut Vec<u8>) {
        // Plain at lag 1 is the first pair tried, and no size reaches
        // `usize::MAX`: it is what the search starts from and what it
        // keeps unless a later pair is strictly smaller.
        let (scheme, lag, best_len) = (1..=EDV_MAX_LAG.min(vals.len().max(1)))
            .flat_map(|lag| [(EDV_SCHEME_PLAIN, lag), (EDV_SCHEME_RLE, lag)])
            .map(|(scheme, lag)| (scheme, lag, Self::measure_column_as(vals, scheme, lag)))
            .fold((EDV_SCHEME_PLAIN, 1, usize::MAX), |best, pair| {
                if pair.2 < best.2 {
                    pair
                } else {
                    best
                }
            });
        out.push(scheme);
        out.push(lag as u8);
        out.reserve(best_len);
        Self::encode_column_as(vals, scheme, lag, out);
    }

    /// Size in bytes of [`Self::encode_column_as`]'s output for the same
    /// arguments, computed without encoding anything.
    fn measure_column_as(vals: &[u32], scheme: u8, lag: usize) -> usize {
        if scheme == EDV_SCHEME_PLAIN {
            return vals
                .iter()
                .enumerate()
                .map(|(i, &v)| varint_len(zigzag(i64::from(v) - lag_prev(vals, i, lag))))
                .sum();
        }
        let mut len = 0usize;
        let mut i = 0;
        while i < vals.len() {
            let delta = i64::from(vals[i]) - lag_prev(vals, i, lag);
            let mut run = 1usize;
            while i + run < vals.len()
                && i64::from(vals[i + run]) - lag_prev(vals, i + run, lag) == delta
            {
                run += 1;
            }
            len += varint_len(zigzag(delta)) + varint_len(run as u64);
            i += run;
        }
        len
    }

    fn encode_column_as(vals: &[u32], scheme: u8, lag: usize, out: &mut Vec<u8>) {
        if scheme == EDV_SCHEME_PLAIN {
            for (i, &v) in vals.iter().enumerate() {
                encode_u64(zigzag(i64::from(v) - lag_prev(vals, i, lag)), out);
            }
            return;
        }
        let mut i = 0;
        while i < vals.len() {
            let delta = i64::from(vals[i]) - lag_prev(vals, i, lag);
            let mut run = 1usize;
            while i + run < vals.len()
                && i64::from(vals[i + run]) - lag_prev(vals, i + run, lag) == delta
            {
                run += 1;
            }
            encode_u64(zigzag(delta), out);
            encode_u64(run as u64, out);
            i += run;
        }
    }

    /// Parses the `EDV` block of the frame `context` describes, appending
    /// its events to `out`, and returns how many; on an error, some may
    /// have been appended. The block's count is held to the frame's before
    /// anything is decoded, and its events to `raw_len`, the length of
    /// their `ETRC` payload.
    fn parse(
        &mut self,
        context: FrameContext<'_>,
        block: &[u8],
        raw_len: usize,
        out: &mut Vec<TraceEvent>,
    ) -> Result<usize, TraceError> {
        let mut offset = 0usize;
        let (count, next) = decode_u64(block, offset)?;
        offset = next;
        let count = usize::try_from(count).map_err(|_| edv_error(offset, "event count"))?;
        context.check_events(count)?;
        // A canonical ETRC event costs at least 4 payload bytes, and every
        // event at least one timestamp byte of this block, so the count
        // can exceed neither the raw length (which may claim 4 GiB) nor
        // the bytes left — reject absurd counts before reserving for them.
        if count > raw_len || count > block.len() - offset {
            return Err(edv_error(
                offset,
                "event count exceeds the raw length or the block",
            ));
        }
        if count == 0 {
            if offset != block.len() {
                return Err(edv_error(offset, "trailing bytes after empty batch"));
            }
            return restores(header_len(0), raw_len).map(|()| 0);
        }

        // Timestamps.
        let (first_ts, next) = decode_u64(block, offset)?;
        offset = next;
        self.ts.clear();
        self.ts.reserve(count);
        self.ts.push(first_ts);
        let mut previous = first_ts;
        for _ in 1..count {
            let (delta, next) = decode_u64(block, offset)?;
            offset = next;
            previous = previous
                .checked_add(delta)
                .ok_or_else(|| edv_error(offset, "timestamp overflow"))?;
            self.ts.push(previous);
        }

        // Dictionary.
        let (dict_len, next) = decode_u64(block, offset)?;
        offset = next;
        let dict_len = usize::try_from(dict_len).map_err(|_| edv_error(offset, "dict length"))?;
        if dict_len == 0 || dict_len > EDV_MAX_DICT {
            return Err(edv_error(offset, "dictionary length out of range"));
        }
        self.dict.clear();
        self.types.clear();
        self.type_of_token.clear();
        for _ in 0..dict_len {
            let (ty, next) = decode_u64(block, offset)?;
            offset = next;
            let ty = u16::try_from(ty).map_err(|_| edv_error(offset, "type id out of range"))?;
            let sev = *block
                .get(offset)
                .ok_or_else(|| edv_error(offset, "truncated severity"))?;
            offset += 1;
            let sev = Severity::from_u8(sev)
                .ok_or_else(|| edv_error(offset - 1, format!("invalid severity byte {sev}")))?;
            self.dict.push((ty, sev));
            let type_at = match self.types.iter().position(|&t| t == ty) {
                Some(at) => at,
                None => {
                    self.types.push(ty);
                    self.types.len() - 1
                }
            };
            self.type_of_token.push(type_at);
        }

        // Tokens.
        self.tokens.clear();
        if dict_len == 1 {
            self.tokens.resize(count, 0);
        } else if dict_len <= 16 {
            let packed = count.div_ceil(2);
            let bytes = block
                .get(offset..offset + packed)
                .ok_or_else(|| edv_error(offset, "truncated token nibbles"))?;
            for i in 0..count {
                let byte = bytes[i / 2];
                let nibble = if i % 2 == 0 { byte & 0x0F } else { byte >> 4 };
                self.tokens.push(nibble);
            }
            // The pad nibble of an odd count must be zero so blocks are
            // canonical (one encoding per window).
            if count % 2 == 1 && bytes[packed - 1] >> 4 != 0 {
                return Err(edv_error(offset, "non-zero token pad nibble"));
            }
            offset += packed;
        } else {
            for _ in 0..count {
                let (token, next) = decode_u64(block, offset)?;
                offset = next;
                let token =
                    u8::try_from(token).map_err(|_| edv_error(offset, "token out of range"))?;
                self.tokens.push(token);
            }
        }
        for &token in &self.tokens {
            if usize::from(token) >= dict_len {
                return Err(edv_error(offset, "token references past the dictionary"));
            }
        }

        // Per-type value counts, then the columns.
        self.counts.clear();
        self.counts.resize(self.types.len(), 0);
        for &token in &self.tokens {
            self.counts[self.type_of_token[usize::from(token)]] += 1;
        }
        while self.columns.len() < self.types.len() {
            self.columns.push(Vec::new());
        }
        let counts = std::mem::take(&mut self.counts);
        for (at, &n) in counts.iter().enumerate() {
            let column = &mut self.columns[at];
            column.clear();
            if n == 0 {
                continue;
            }
            let scheme = *block
                .get(offset)
                .ok_or_else(|| edv_error(offset, "truncated column scheme"))?;
            let lag = *block
                .get(offset + 1)
                .ok_or_else(|| edv_error(offset, "truncated column lag"))?
                as usize;
            offset += 2;
            if scheme > EDV_SCHEME_RLE {
                return Err(edv_error(
                    offset - 2,
                    format!("unknown column scheme {scheme}"),
                ));
            }
            if lag == 0 || lag > EDV_MAX_LAG {
                return Err(edv_error(
                    offset - 1,
                    format!("column lag {lag} out of range"),
                ));
            }
            let push = |column: &mut Vec<u32>, delta: i64, at: usize| -> Result<(), TraceError> {
                let prev = lag_prev(column, column.len(), lag);
                let value = prev
                    .checked_add(delta)
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| edv_error(at, "payload value out of u32 range"))?;
                column.push(value);
                Ok(())
            };
            if scheme == EDV_SCHEME_PLAIN {
                for _ in 0..n {
                    let (zz, next) = decode_u64(block, offset)?;
                    offset = next;
                    push(column, unzigzag(zz), offset)?;
                }
            } else {
                while column.len() < n {
                    let (zz, next) = decode_u64(block, offset)?;
                    offset = next;
                    let (run, next) = decode_u64(block, offset)?;
                    offset = next;
                    let run = usize::try_from(run).map_err(|_| edv_error(offset, "run length"))?;
                    if run == 0 || column.len() + run > n {
                        return Err(edv_error(offset, "run length out of range"));
                    }
                    for _ in 0..run {
                        push(column, unzigzag(zz), offset)?;
                    }
                }
            }
        }
        self.counts = counts;
        if offset != block.len() {
            return Err(edv_error(
                offset,
                format!("{} trailing bytes", block.len() - offset),
            ));
        }

        // Assemble events in recording order, summing the bytes each takes
        // in `ETRC`: its timestamp's delta (the first one absolute), its
        // type, its payload and a severity byte.
        self.cursors.clear();
        self.cursors.resize(self.types.len(), 0);
        out.reserve(count);
        let (mut etrc, mut previous) = (header_len(count), 0);
        for (i, &token) in self.tokens.iter().enumerate() {
            let (ty, sev) = self.dict[usize::from(token)];
            let at = self.type_of_token[usize::from(token)];
            let payload = self.columns[at][self.cursors[at]];
            self.cursors[at] += 1;
            let ns = self.ts[i];
            etrc += varint_len(ns - previous)
                + varint_len(u64::from(ty))
                + varint_len(u64::from(payload))
                + 1;
            previous = ns;
            out.push(
                TraceEvent::new(Timestamp::from_nanos(ns), EventTypeId::new(ty), payload)
                    .with_severity(sev),
            );
        }
        restores(etrc, raw_len).map(|()| count)
    }
}

/// Holds a block whose events take `etrc` bytes as an `ETRC` payload to
/// the frame's raw length.
fn restores(etrc: usize, raw_len: usize) -> Result<(), TraceError> {
    if etrc == raw_len {
        return Ok(());
    }
    Err(edv_error(
        0,
        format!("block restores {etrc} bytes but the frame says {raw_len}"),
    ))
}

impl DeltaVarintCodec {
    /// Appends the `EDV` block of `events` — the canonical decode of a
    /// payload — to `out`, or returns `false` with `out` unchanged when
    /// the block would not be smaller than `limit` bytes or the window has
    /// more than 255 `(type, severity)` pairs.
    ///
    /// The column search is the dear part of the encoder, so it runs only
    /// when the block can still come in under `limit` once everything
    /// before the columns is written: every column costs at least three
    /// bytes (scheme, lag, one value). On short windows the dictionary,
    /// tokens and column headers alone lose.
    fn encode_events(&mut self, events: &[TraceEvent], limit: usize, out: &mut Vec<u8>) -> bool {
        let start = out.len();
        encode_u64(events.len() as u64, out);
        if events.is_empty() {
            if out.len() - start >= limit {
                out.truncate(start);
                return false;
            }
            return true;
        }
        if !self.build_columns(events) {
            out.truncate(start);
            return false;
        }

        // Timestamps: one pass over the event slice (steady streams cost
        // one or two delta bytes per event, so reserve for that shape
        // once instead of growing inside the loop).
        out.reserve(2 * events.len() + 16);
        encode_u64(events[0].timestamp.as_nanos(), out);
        for pair in events.windows(2) {
            encode_u64(
                pair[1].timestamp.as_nanos() - pair[0].timestamp.as_nanos(),
                out,
            );
        }

        // Dictionary.
        encode_u64(self.dict.len() as u64, out);
        for &(ty, sev) in &self.dict {
            encode_u64(u64::from(ty), out);
            out.push(sev.as_u8());
        }

        // Tokens.
        if self.dict.len() == 1 {
            // Every token is 0; nothing to store.
        } else if self.dict.len() <= 16 {
            for pair in self.tokens.chunks(2) {
                let low = pair[0];
                let high = pair.get(1).copied().unwrap_or(0);
                out.push((high << 4) | low);
            }
        } else {
            for &token in &self.tokens {
                encode_u64(u64::from(token), out);
            }
        }

        // Payload columns: one per type, each holding at least one value.
        if out.len() - start + 3 * self.types.len() >= limit {
            out.truncate(start);
            return false;
        }
        for at in 0..self.types.len() {
            if !self.columns[at].is_empty() {
                Self::encode_column(&self.columns[at], out);
            }
        }

        if out.len() - start >= limit {
            out.truncate(start);
            return false;
        }
        true
    }

    /// A floor under the size of the `EDV` block of a window, from what a
    /// pass over its events learns without building a column: its `count`
    /// events, its first timestamp `first_ns`, the `deltas` bytes the
    /// varints of the later timestamps' deltas take, and its dictionary.
    /// That is every byte ahead of the payload columns and three for each
    /// column, the size at which [`DeltaVarintCodec::encode_events`] stops
    /// before its column search; exact but for the tokens of a dictionary
    /// past 16 entries, counted at a byte each. `usize::MAX` past 255
    /// entries, which `EDV` refuses.
    fn size_floor(count: usize, first_ns: u64, deltas: usize, dictionary: &Dictionary) -> usize {
        if count == 0 {
            return varint_len(0);
        }
        let entries = dictionary.entries;
        if entries > EDV_MAX_DICT {
            return usize::MAX;
        }
        // Per entry its type's varint and a severity byte.
        let dictionary_bytes = dictionary.type_bytes + entries;
        let tokens = match entries {
            1 => 0,
            2..=16 => count.div_ceil(2),
            _ => count,
        };
        varint_len(count as u64)
            + varint_len(first_ns)
            + deltas
            + varint_len(entries as u64)
            + dictionary_bytes
            + tokens
            + 3 * dictionary.types()
    }
}

// The packed rows (id 3): the events of a canonical `ETRC` payload as
// varint rows, and nothing else. The block layout (normative spec in
// `docs/FORMAT.md` §3.3):
//
//   per event, in order, until the block ends:
//     varint  time: zigzag(timestamp − window start) on the first row,
//             timestamp − the previous row's on every other (≥ 0)
//     varint  (event type << 2) | severity
//     varint  payload
//
// Of the `ETRC` block it replaces, the magic, the version, the event
// count and an absolute first timestamp are what the frame's meta already
// says — the window start and the count arrive as the `FrameContext`, and
// a framed decode holds the rows to that count — and the severity byte
// folds into the type varint. Only canonical `ETRC` payloads are stored
// as rows, so restoring them re-encodes the rows' events into the payload
// bit for bit.

fn packed_error(offset: usize, reason: impl Into<String>) -> TraceError {
    TraceError::Decode {
        offset,
        reason: format!("packed block: {}", reason.into()),
    }
}

/// The severity in the low two bits of a packed tag.
pub(super) fn tag_severity(tag: u64) -> Severity {
    match tag & 3 {
        0 => Severity::Debug,
        1 => Severity::Info,
        2 => Severity::Warning,
        _ => Severity::Error,
    }
}

/// The packed tag of `event`: `(event type << 2) | severity`.
pub(super) fn tag_of(event: &TraceEvent) -> u32 {
    (u32::from(event.event_type.as_u16()) << 2) | u32::from(event.severity.as_u8())
}

/// The time column of row `at` of `events`, whose previous row's
/// timestamp is `previous`: the first timestamp as its wrapping
/// difference from the window start `start_ns`, zigzagged (an event may
/// be stamped before its window opens), every other as its delta from the
/// one before.
#[inline]
fn row_time(at: usize, ns: u64, previous: u64, start_ns: u64) -> u64 {
    if at == 0 {
        zigzag(ns.wrapping_sub(start_ns) as i64)
    } else {
        ns - previous
    }
}

/// Appends packed rows to `out`: per `(tag, payload)` of `rows`, the next
/// varint of the time column `times`, then the tag and the payload. The
/// rows end with `rows` or with `times`, whichever runs out first.
pub(super) fn put_rows(times: &[u8], rows: impl Iterator<Item = (u32, u32)>, out: &mut Vec<u8>) {
    let mut at = 0;
    for (tag, payload) in rows {
        let time = at;
        if take_minimal_u64(times, &mut at).is_none() {
            return;
        }
        out.extend_from_slice(&times[time..at]);
        encode_u64(u64::from(tag), out);
        encode_u64(u64::from(payload), out);
    }
}

/// Appends the events of the packed `block` to `out` and returns how many;
/// on an error — the frame's claimed count included — some may have been
/// appended. A row is at least three bytes, so this reserves for no more
/// rows than the block can hold, and framed, for no more than the frame
/// claims: a row past the claim is an error before it is pushed.
///
/// The events must also encode to a payload of `raw_len` bytes, what the
/// frame claims: rows coded against another window start than the
/// frame's decode to shifted events, and this catches them whenever the
/// shift changes the first timestamp's varint length.
fn parse_packed(
    context: FrameContext,
    block: &[u8],
    raw_len: usize,
    out: &mut Vec<TraceEvent>,
) -> Result<usize, TraceError> {
    let most = block.len() / 3;
    let rows = match context.events {
        Some(claimed) if claimed as usize > most => {
            return Err(packed_error(
                0,
                format!("the frame claims {claimed} events, more than {most} rows fit"),
            ))
        }
        Some(claimed) => claimed as usize,
        None => most,
    };
    let first = out.len();
    out.reserve(rows.min(1 << 20));
    let events_len = push_rows(context.start_ns, block, rows, out)?;
    let decoded = out.len() - first;
    context.check_events(decoded)?;
    let restores = header_len(decoded) + events_len;
    if restores != raw_len {
        return Err(packed_error(
            0,
            format!("block restores {restores} bytes but the frame says {raw_len}"),
        ));
    }
    Ok(decoded)
}

/// Pushes the rows of `block`, at most `limit` of them, onto `out`, and
/// returns how many bytes their events take in an `ETRC` payload after
/// its header.
fn push_rows(
    start_ns: u64,
    block: &[u8],
    limit: usize,
    out: &mut Vec<TraceEvent>,
) -> Result<usize, TraceError> {
    let (mut at, mut previous): (usize, Option<u64>) = (0, None);
    let mut events_len = 0;
    for _ in 0..limit {
        if at == block.len() {
            return Ok(events_len);
        }
        let row = at;
        let (Some(time), Some(tag), Some(payload)) = (
            take_minimal_u64(block, &mut at),
            take_minimal_u64(block, &mut at),
            take_minimal_u64(block, &mut at),
        ) else {
            return Err(packed_error(row, "truncated or non-minimal varint"));
        };
        let ns = match previous {
            None => start_ns.wrapping_add(unzigzag(time) as u64),
            Some(previous) => previous
                .checked_add(time)
                .ok_or_else(|| packed_error(row, "timestamp overflow"))?,
        };
        let (Ok(event_type), Ok(payload)) = (u16::try_from(tag >> 2), u32::try_from(payload))
        else {
            return Err(packed_error(row, "event type or payload out of range"));
        };
        out.push(
            TraceEvent::new(
                Timestamp::from_nanos(ns),
                EventTypeId::new(event_type),
                payload,
            )
            .with_severity(tag_severity(tag)),
        );
        // `ETRC` spells the event as its row, plus a severity byte, with
        // the type's varint in place of the tag's (a byte shorter where
        // the two severity bits open a byte) and, first, the absolute
        // timestamp in place of its zigzagged difference from the start.
        events_len += at - row + 1;
        if tag >= 0x80 {
            events_len -= varint_len(tag) - varint_len(tag >> 2);
        }
        if previous.is_none() {
            events_len = events_len + varint_len(ns) - varint_len(time);
        }
        previous = Some(ns);
    }
    if at < block.len() {
        return Err(packed_error(
            at,
            format!("more than the {limit} rows claimed"),
        ));
    }
    Ok(events_len)
}

/// What a window's `EDV` dictionary — its distinct `(type, severity)`
/// pairs, which are its distinct packed tags — holds: its entries, their
/// types' varint bytes, and its distinct types. A tag below 256, every tag
/// of most windows, is looked up in a bit set, its type (below 64) in
/// another.
#[derive(Debug, Default)]
struct Dictionary {
    entries: usize,
    type_bytes: usize,
    small_tags: [u64; 4],
    small_types: u64,
    /// The distinct tags from 256 on, no more of them than `EDV` takes.
    large_tags: Vec<u32>,
    large_types: usize,
}

impl Dictionary {
    fn clear(&mut self) {
        (self.entries, self.type_bytes) = (0, 0);
        (self.small_tags, self.small_types) = ([0; 4], 0);
        self.large_tags.clear();
        self.large_types = 0;
    }

    /// Counts `tag` in, unless it is in already.
    #[inline]
    fn insert(&mut self, tag: u32) {
        let ty = tag >> 2;
        if let Some(word) = self.small_tags.get_mut(tag as usize / 64) {
            let bit = 1 << (tag % 64);
            if *word & bit != 0 {
                return;
            }
            *word |= bit;
            self.small_types |= 1 << ty;
        } else {
            if self.large_tags.contains(&tag) {
                return;
            }
            if self.large_tags.iter().all(|&seen| seen >> 2 != ty) {
                self.large_types += 1;
            }
            if self.large_tags.len() < EDV_MAX_DICT {
                self.large_tags.push(tag);
            }
        }
        self.entries += 1;
        self.type_bytes += varint_len(u64::from(ty));
    }

    /// Distinct types among the entries.
    fn types(&self) -> usize {
        self.small_types.count_ones() as usize + self.large_types
    }
}

/// Chooses, and writes, the stored block of every frame a recompression
/// pass re-encodes — the one place that knows both the `EDV` and the
/// packed layout, so the one place that can compare them.
///
/// ```rust
/// use trace_model::codec::{BinaryEncoder, BlockChooser, BlockCodec, CodecId, FrameContext, TraceEncoder};
/// use trace_model::{EventTypeId, Timestamp, TraceEvent};
///
/// # fn main() -> Result<(), trace_model::TraceError> {
/// // A 40 ms window of 18 events: the rows beat EDV's columns.
/// let events: Vec<TraceEvent> = (0..18)
///     .map(|i| TraceEvent::new(Timestamp::from_micros(1_000 + i * 2_200), EventTypeId::new((i % 5) as u16), i as u32))
///     .collect();
/// let mut payload = Vec::new();
/// BinaryEncoder::new().encode(&events, &mut payload)?;
/// let context = FrameContext::framed(1_000_000, 18);
/// let mut block = Vec::new();
/// let stored = BlockChooser::new().choose(context, &payload, &mut block);
/// assert_eq!(stored, CodecId::Packed);
/// assert!(block.len() < payload.len());
///
/// let (mut scratch, mut replayed) = (Vec::new(), Vec::new());
/// BlockCodec::default().decode_block(stored, context, &block, payload.len(), &mut scratch, &mut replayed)?;
/// assert_eq!(replayed, events);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct BlockChooser {
    /// The one pass over the payload at hand.
    rows: RowScan,
    edv: DeltaVarintCodec,
}

impl BlockChooser {
    /// Creates a chooser (scratch buffers grow on use and are reused
    /// across frames).
    pub fn new() -> Self {
        BlockChooser::default()
    }

    /// The canonical decode of the payload the chooser last stored under
    /// another codec than identity.
    pub(super) fn events(&self) -> &[TraceEvent] {
        &self.rows.events
    }

    /// The time column of the packed rows of [`BlockChooser::events`]:
    /// the templated block's, byte for byte.
    pub(super) fn times(&self) -> &[u8] {
        &self.rows.times
    }

    /// Stores `payload`, the payload of the frame `context` describes, as
    /// the smallest of its `EDV` block, its packed rows and the payload
    /// itself, a tie going to the simpler block (payload, then rows).
    /// Returns the codec of the block chosen and appends the block to
    /// `out` — except under [`CodecId::Identity`], whose block is
    /// `payload` and leaves `out` as it was. A payload that is not
    /// canonical `ETRC`, or whose event count is not the frame's, is
    /// stored as it is.
    pub fn choose(&mut self, context: FrameContext, payload: &[u8], out: &mut Vec<u8>) -> CodecId {
        let (codec, _) = self.size_blocks(context, payload, out);
        if codec == CodecId::Packed {
            self.put_rows(out);
        }
        codec
    }

    /// [`BlockChooser::choose`], but for the packed rows, which are sized
    /// and left unwritten — [`BlockChooser::put_rows`] writes them — and
    /// the size of the block chosen returned with its codec.
    ///
    /// One pass decodes the payload and sizes its rows, the limit `EDV`
    /// must beat; the same pass learns what
    /// [`DeltaVarintCodec::size_floor`] sizes `EDV`'s block from, so
    /// `EDV`'s encoder runs only on the windows it may win, and only a
    /// block it wins with is written.
    pub(super) fn size_blocks(
        &mut self,
        context: FrameContext,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> (CodecId, usize) {
        let Some(packed) = self
            .rows
            .scan(context.start_ns, payload)
            .filter(|_| context.check_events(self.rows.events.len()).is_ok())
        else {
            return (CodecId::Identity, payload.len());
        };
        let limit = packed.min(payload.len());
        if self.rows.edv_floor(context.start_ns) < limit {
            let start = out.len();
            if self.edv.encode_events(&self.rows.events, limit, out) {
                return (CodecId::DeltaVarint, out.len() - start);
            }
        }
        if packed < payload.len() {
            return (CodecId::Packed, packed);
        }
        (CodecId::Identity, payload.len())
    }

    /// Appends the packed rows of the payload [`BlockChooser::size_blocks`] sized
    /// last.
    pub(super) fn put_rows(&self, out: &mut Vec<u8>) {
        self.rows.put_rows(out);
    }
}

/// One pass over a canonical `ETRC` payload: decodes its events, and
/// gathers on the way what sizes each block of the window — its packed
/// rows, their time column (the templated block's too) and its `EDV`
/// dictionary — without writing any but the time column.
#[derive(Debug, Default)]
struct RowScan {
    /// The canonical decode of the payload scanned last.
    events: Vec<TraceEvent>,
    /// The time column of its packed rows.
    times: Vec<u8>,
    /// Its distinct tags.
    dictionary: Dictionary,
}

impl RowScan {
    /// Decodes `payload`, when it is canonical `ETRC`, and writes the time
    /// column of its packed rows, coded against the window start
    /// `start_ns`. Returns the size of its packed rows; `None` when it is
    /// not canonical, which leaves the scan unspecified.
    fn scan(&mut self, start_ns: u64, payload: &[u8]) -> Option<usize> {
        let RowScan {
            events,
            times,
            dictionary,
        } = self;
        times.clear();
        dictionary.clear();
        let (mut at, mut previous, mut columns) = (0, start_ns, 0);
        let canonical = decode_canonical_with(payload, events, |event| {
            let ns = event.timestamp.as_nanos();
            let tag = tag_of(event);
            encode_u64(row_time(at, ns, previous, start_ns), times);
            columns += varint_len(u64::from(tag)) + varint_len(u64::from(event.payload));
            dictionary.insert(tag);
            (at, previous) = (at + 1, ns);
        });
        canonical.then_some(times.len() + columns)
    }

    /// Appends the packed rows of the window scanned last.
    fn put_rows(&self, out: &mut Vec<u8>) {
        let rows = self
            .events
            .iter()
            .map(|event| (tag_of(event), event.payload));
        put_rows(&self.times, rows, out);
    }

    /// [`DeltaVarintCodec::size_floor`] of the window scanned last, whose
    /// later timestamps' deltas are its time column but the first row's.
    fn edv_floor(&self, start_ns: u64) -> usize {
        let first_ns = self
            .events
            .first()
            .map_or(0, |event| event.timestamp.as_nanos());
        let first_row = varint_len(row_time(0, first_ns, start_ns, start_ns));
        DeltaVarintCodec::size_floor(
            self.events.len(),
            first_ns,
            self.times.len().saturating_sub(first_row),
            &self.dictionary,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(us: u64, ty: u16, payload: u32, sev: Severity) -> TraceEvent {
        TraceEvent::new(Timestamp::from_micros(us), EventTypeId::new(ty), payload)
            .with_severity(sev)
    }

    fn periodic_events(count: u64) -> Vec<TraceEvent> {
        (0..count)
            .map(|i| {
                ev(
                    i * 137 + (i % 3) * 11,
                    (i % 4) as u16,
                    (i / 4) as u32,
                    if i % 50 == 0 {
                        Severity::Warning
                    } else {
                        Severity::Info
                    },
                )
            })
            .collect()
    }

    fn payload_of(events: &[TraceEvent]) -> Vec<u8> {
        let mut payload = Vec::new();
        BinaryEncoder::new().encode(events, &mut payload).unwrap();
        payload
    }

    fn assert_round_trip(codec: &mut BlockCodec, events: &[TraceEvent]) {
        let payload = payload_of(events);
        let mut block = Vec::new();
        let compressed = codec.compress(&payload, &mut block).unwrap();
        if !compressed {
            assert!(block.is_empty(), "a refusal must leave `out` unchanged");
            return;
        }
        assert!(block.len() < payload.len());
        let mut restored = Vec::new();
        codec
            .decompress(&block, payload.len(), &mut restored)
            .unwrap();
        assert_eq!(restored, payload, "payload bytes must round-trip exactly");
        let (mut scratch, mut decoded) = (Vec::new(), Vec::new());
        let n = codec
            .decode_events(&block, payload.len(), &mut scratch, &mut decoded)
            .unwrap();
        assert_eq!(n, events.len());
        assert_eq!(decoded, events);
    }

    #[test]
    fn codec_ids_round_trip_their_wire_values() {
        for id in CodecId::ALL {
            assert_eq!(CodecId::from_u8(id.as_u8()), Some(id));
            assert_eq!(id.new_codec().id(), id);
        }
        assert_eq!(CodecId::from_u8(5), None);
        assert_eq!(CodecId::DeltaVarint.to_string(), "delta-varint");
        assert_eq!(CodecId::Packed.to_string(), "packed");
        assert_eq!(CodecId::Templated.to_string(), "templated");
    }

    #[test]
    fn packed_rows_are_coded_against_the_frame() {
        // Window at 1 ms; the first event 2 µs before it opens, the
        // second 300 ns after the first.
        let events = [
            TraceEvent::new(Timestamp::from_nanos(998_000), EventTypeId::new(5), 7)
                .with_severity(Severity::Warning),
            TraceEvent::new(Timestamp::from_nanos(998_300), EventTypeId::new(40), 300),
        ];
        let payload = payload_of(&events);
        let context = FrameContext::framed(1_000_000, 2);
        let mut block = Vec::new();
        let stored = BlockChooser::new().choose(context, &payload, &mut block);
        assert_eq!(stored, CodecId::Packed);
        // zigzag(-2000) = 3999; 5 << 2 | 2 = 22; 300; 40 << 2 | 1 = 161.
        assert_eq!(
            block,
            [0x9f, 0x1f, 22, 7, 0xac, 0x02, 0xa1, 0x01, 0xac, 0x02]
        );
        let mut codec = CodecId::Packed.new_codec();
        let mut restored = Vec::new();
        codec
            .restore_block(
                CodecId::Packed,
                context,
                &block,
                payload.len(),
                &mut restored,
            )
            .unwrap();
        assert_eq!(restored, payload);

        // The count is the frame's: any other claim is a decode error,
        // and appends nothing.
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        for claimed in [0, 1, 3, u32::MAX] {
            let wrong = FrameContext::framed(1_000_000, claimed);
            assert!(codec
                .decode_block(
                    CodecId::Packed,
                    wrong,
                    &block,
                    payload.len(),
                    &mut scratch,
                    &mut out
                )
                .is_err());
            assert!(out.is_empty());
        }
        // Decoded outside its frame, against a start of 0, the first row
        // lands 2 µs before 0 and wraps: the rows no longer restore the
        // payload's length, and the replay fast path says so.
        assert!(codec
            .decode_events(&block, payload.len(), &mut scratch, &mut out)
            .is_err());
        assert!(out.is_empty());
        // The chooser stores a payload of another count as it is.
        let mut refused = Vec::new();
        let three = FrameContext::framed(1_000_000, 3);
        assert_eq!(
            BlockChooser::new().choose(three, &payload, &mut refused),
            CodecId::Identity
        );
        assert!(refused.is_empty());
    }

    #[test]
    fn packed_handles_edge_batches() {
        let mut codec = CodecId::Packed.new_codec();
        assert_round_trip(&mut codec, &[]);
        assert_round_trip(&mut codec, &[ev(5, 9, 1234, Severity::Error)]);
        assert_round_trip(
            &mut codec,
            &[
                ev(7, 0, 0, Severity::Debug),
                ev(7, 0, u32::MAX, Severity::Info),
                ev(7, u16::MAX, u32::MAX, Severity::Error),
            ],
        );
        assert_round_trip(&mut codec, &periodic_events(64));
    }

    #[test]
    fn identity_round_trips_any_bytes() {
        let mut codec = CodecId::Identity.new_codec();
        for payload in [b"".as_slice(), b"abc", &[0xFFu8; 300]] {
            let mut block = Vec::new();
            assert!(codec.compress(payload, &mut block).unwrap());
            assert_eq!(block, payload);
            let mut restored = Vec::new();
            codec
                .decompress(&block, payload.len(), &mut restored)
                .unwrap();
            assert_eq!(restored, payload);
        }
        let mut out = Vec::new();
        assert!(codec.decompress(b"abc", 2, &mut out).is_err());
    }

    #[test]
    fn delta_varint_compresses_periodic_streams_and_round_trips() {
        let events = periodic_events(500);
        let payload = payload_of(&events);
        let mut codec = CodecId::DeltaVarint.new_codec();
        let mut block = Vec::new();
        assert!(codec.compress(&payload, &mut block).unwrap());
        assert!(
            (block.len() as f64) < payload.len() as f64 / 1.3,
            "periodic events must compress well: {} vs {}",
            block.len(),
            payload.len()
        );
        assert_round_trip(&mut codec, &events);
    }

    #[test]
    fn delta_varint_handles_edge_batches() {
        let mut codec = CodecId::DeltaVarint.new_codec();
        assert_round_trip(&mut codec, &[]);
        assert_round_trip(&mut codec, &[ev(5, 9, 1234, Severity::Error)]);
        // Same timestamp repeated, payload extremes, every severity.
        assert_round_trip(
            &mut codec,
            &[
                ev(7, 0, 0, Severity::Debug),
                ev(7, 0, u32::MAX, Severity::Info),
                ev(7, 1, u32::MAX, Severity::Warning),
                ev(7, u16::MAX, 0, Severity::Error),
            ],
        );
        // The codec reuses scratch state: run a second batch through the
        // same instance.
        assert_round_trip(&mut codec, &periodic_events(64));
    }

    #[test]
    fn delta_varint_refuses_non_canonical_payloads() {
        let mut codec = CodecId::DeltaVarint.new_codec();
        let mut block = Vec::new();
        // Not an ETRC payload at all.
        assert!(!codec.compress(b"definitely not ETRC", &mut block).unwrap());
        assert!(block.is_empty());
        // A decodable but non-canonical payload: overlong varint count.
        let mut payload = Vec::new();
        BinaryEncoder::new().encode(&[], &mut payload).unwrap();
        assert_eq!(payload.pop(), Some(0)); // count varint "0"
        payload.extend_from_slice(&[0x80, 0x00]); // overlong "0"
        assert!(BinaryDecoder::new().decode(&payload).unwrap().is_empty());
        assert!(!codec.compress(&payload, &mut block).unwrap());
        assert!(block.is_empty());
    }

    #[test]
    fn delta_varint_rejects_corrupt_blocks() {
        let events = periodic_events(300);
        let payload = payload_of(&events);
        let mut codec = CodecId::DeltaVarint.new_codec();
        let mut block = Vec::new();
        assert!(codec.compress(&payload, &mut block).unwrap());
        // Truncations at every byte must error, never panic or mis-decode.
        for cut in 0..block.len() {
            let mut out = Vec::new();
            assert!(
                codec
                    .decompress(&block[..cut], payload.len(), &mut out)
                    .is_err(),
                "cut at {cut}"
            );
        }
        // A wrong raw length is detected.
        let mut out = Vec::new();
        assert!(codec
            .decompress(&block, payload.len() + 1, &mut out)
            .is_err());
    }

    #[test]
    fn lz_block_decodes_blocks_and_compresses_nothing() {
        let mut codec = CodecId::LzBlock.new_codec();
        let payload = payload_of(&periodic_events(500));
        let mut block = Vec::new();
        assert!(!codec.compress(&payload, &mut block).unwrap());
        assert!(block.is_empty(), "a refusal must leave `out` unchanged");
        // A hand-built block: eight literals, a match of twelve bytes
        // four back, then three literals.
        let block = [
            0x88, b'E', b'T', b'R', b'C', 1, 2, 3, 4, 4, 0, 0x30, 9, 8, 7,
        ];
        let mut restored = Vec::new();
        codec.decompress(&block, 23, &mut restored).unwrap();
        let mut expected = b"ETRC".to_vec();
        expected.extend([1, 2, 3, 4].repeat(4));
        expected.extend([9, 8, 7]);
        assert_eq!(restored, expected);
        assert!(codec.decompress(&block, 24, &mut Vec::new()).is_err());
    }

    mod chooser {
        use super::*;
        use proptest::prelude::*;

        #[test]
        fn long_regular_windows_keep_edv_and_short_ones_pack() {
            let long = periodic_events(500);
            let mut chooser = BlockChooser::new();
            for (events, expected) in [
                (&long[..], CodecId::DeltaVarint),
                (&long[..8], CodecId::Packed),
                (&long[..0], CodecId::Packed),
            ] {
                let payload = payload_of(events);
                let context = FrameContext::framed(0, events.len() as u32);
                let mut block = Vec::new();
                let stored = chooser.choose(context, &payload, &mut block);
                assert_eq!(stored, expected, "{} events", events.len());
                // Not canonical `ETRC`, or not the frame's count: verbatim.
                let other = FrameContext::framed(0, events.len() as u32 + 1);
                for (context, payload) in [(other, &payload[..]), (context, b"ETRC?")] {
                    let stored = chooser.choose(context, payload, &mut block);
                    assert_eq!(stored, CodecId::Identity);
                }
            }
        }

        /// `EDV`'s size floor, which its encoder runs only under, is the
        /// block's own size where every payload column holds one value
        /// below 64 — scheme, lag and one zigzag varint byte, three bytes a
        /// column — whatever the dictionary's size, nibble tokens or varint
        /// ones.
        #[test]
        fn the_edv_floor_is_the_block_where_every_column_takes_three_bytes() {
            for types in [1u64, 2, 16, 17, 127] {
                let events: Vec<TraceEvent> = (0..types)
                    .map(|i| {
                        let severity = Severity::from_u8((i % 4) as u8).unwrap();
                        ev(1_000 + i * 7, (i * 3) as u16, (i % 64) as u32, severity)
                    })
                    .collect();
                let payload = payload_of(&events);
                let mut scan = RowScan::default();
                assert!(scan.scan(999_000, &payload).is_some());
                let mut block = Vec::new();
                assert!(DeltaVarintCodec::default().encode_events(&events, usize::MAX, &mut block));
                assert_eq!(scan.edv_floor(999_000), block.len(), "{types} types");
            }
        }

        /// A window and its start: `count` events on a `step` cadence with
        /// up to `jitter` ns of noise, cycling through `types` types (a few,
        /// or — past 255 `(type, severity)` pairs — more than `EDV` takes),
        /// with linear, constant or arbitrary payloads and the odd
        /// non-`Info` severity; the window opening up to 2.5 µs either side
        /// of the first event.
        fn window() -> impl Strategy<Value = (Vec<TraceEvent>, u64)> {
            (
                (0usize..300, 1u16..300, any::<bool>()),
                (1u64..4_000_000, 0u64..2_000, 0u64..5_000),
                (0u8..3, 0u8..4, any::<u64>()),
            )
                .prop_map(
                    |((count, types, few), (step, jitter, lead), (payloads, severity, seed))| {
                        let types = if few { types % 9 + 1 } else { types };
                        let base = seed >> 24;
                        let noise =
                            |i: u64| seed.wrapping_mul(i + 1).rotate_left(17) % (jitter + 1);
                        let events = (0..count as u64)
                            .map(|i| {
                                let payload = match payloads {
                                    0 => (i / u64::from(types)) as u32,
                                    1 => 7,
                                    _ => (seed.wrapping_mul(i + 3) >> 32) as u32,
                                };
                                let severity = if i % 7 == 3 { severity } else { 1 };
                                TraceEvent::new(
                                    Timestamp::from_nanos(base + i * step + noise(i)),
                                    EventTypeId::new((i % u64::from(types)) as u16 * 3),
                                    payload,
                                )
                                .with_severity(Severity::from_u8(severity).unwrap())
                            })
                            .collect();
                        (events, (base + lead).wrapping_sub(2_500))
                    },
                )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(400))]

            /// The size floor never passes the `EDV` block it stands for,
            /// and the one pass sizes the packed rows it would write.
            #[test]
            fn the_one_pass_sizes_what_it_would_write(window in window()) {
                let (events, start_ns) = window;
                let payload = payload_of(&events);
                let mut scan = RowScan::default();
                let packed = scan.scan(start_ns, &payload);
                let mut rows = Vec::new();
                scan.put_rows(&mut rows);
                prop_assert_eq!(packed, Some(rows.len()));
                let mut edv = Vec::new();
                if DeltaVarintCodec::default().encode_events(&events, usize::MAX, &mut edv) {
                    prop_assert!(scan.edv_floor(start_ns) <= edv.len());
                }
            }

            /// The chooser stores the smallest of the candidates, exactly
            /// — the limit `EDV`'s encoder stops at never loses a smaller
            /// block — and what it stores replays as the payload and its
            /// events.
            #[test]
            fn the_stored_block_is_the_smallest_candidate(window in window()) {
                let (events, start_ns) = window;
                let payload = payload_of(&events);
                let context = FrameContext::framed(start_ns, events.len() as u32);
                // `EDV`'s block with no limit to stop at: `None` past 255
                // `(type, severity)` pairs.
                let mut edv = Vec::new();
                let edv = DeltaVarintCodec::default()
                    .encode_events(&events, usize::MAX, &mut edv)
                    .then_some(edv);
                let mut scan = RowScan::default();
                prop_assert!(scan.scan(start_ns, &payload).is_some());
                let mut packed = Vec::new();
                scan.put_rows(&mut packed);
                prop_assert!(packed.len() < payload.len(), "canonical payloads always pack smaller");

                let mut chooser = BlockChooser::new();
                let mut block = vec![0xEE];
                let stored = chooser.choose(context, &payload, &mut block);
                let block = &block[1..];
                let size = if stored == CodecId::Identity {
                    prop_assert!(block.is_empty());
                    payload.len()
                } else {
                    block.len()
                };
                let smallest = edv.as_ref().map_or(usize::MAX, Vec::len).min(packed.len());
                prop_assert_eq!(size, smallest, "over {} events", events.len());
                prop_assert_eq!(stored == CodecId::DeltaVarint, edv.as_ref().is_some_and(|edv| edv.len() < packed.len()));
                if stored != CodecId::Identity {
                    let mut codec = BlockCodec::default();
                    let mut restored = Vec::new();
                    codec.restore_block(stored, context, block, payload.len(), &mut restored).unwrap();
                    prop_assert_eq!(&restored, &payload);
                    let (mut scratch, mut replayed) = (Vec::new(), Vec::new());
                    codec
                        .decode_block(stored, context, block, payload.len(), &mut scratch, &mut replayed)
                        .unwrap();
                    prop_assert_eq!(&replayed, &events);
                }

                // The encoder's early stop is a lower bound: a limit one
                // past the block keeps it, byte for byte; the block's own
                // size is refused, leaving `out` as it was.
                if let Some(edv) = edv {
                    let mut codec = DeltaVarintCodec::default();
                    let mut out = vec![0xEE];
                    prop_assert!(codec.encode_events(&events, edv.len() + 1, &mut out));
                    prop_assert_eq!(&out[1..], &edv[..]);
                    out.truncate(1);
                    prop_assert!(!codec.encode_events(&events, edv.len(), &mut out));
                    prop_assert_eq!(out, [0xEE]);
                }
            }
        }
    }
}
