//! Pluggable per-frame compression codecs for stored trace payloads.
//!
//! The durable store frames every recorded window as `[meta | payload]`,
//! where the payload is the recorder's encoded bytes (the compact `ETRC`
//! block of [`super::BinaryEncoder`]). A [`FrameCodec`] transforms that
//! payload into a smaller stored *block* and back. A lane's writer stores
//! payloads verbatim; the store's compaction pass is what compresses
//! them, through one of these:
//!
//! * [`IdentityCodec`] (id 0) — stores the payload verbatim; the stored
//!   block *is* the payload.
//! * [`DeltaVarintCodec`] (id 1) — re-encodes canonical `ETRC` payloads
//!   into a columnar delta + LEB128-varint layout (the `EDV` block
//!   format) that exploits the monotone structure of trace events:
//!   timestamp deltas, a `(type, severity)` dictionary with nibble-packed
//!   tokens, and per-type lag-`k` payload delta columns with optional
//!   run-length encoding. Non-`ETRC` (or non-canonical) payloads are
//!   refused, not mangled — the caller falls back to identity for that
//!   frame.
//! * [`LzBlockCodec`] (id 2) — read-only: it decodes the LZ77 blocks
//!   (the vendored [`lzb`] crate's format) of stores written by earlier
//!   builds and refuses every payload it is asked to compress, so nothing
//!   writes one any more. The id is never reused.
//!
//! Every codec is *lossless at the byte level*: decompressing a stored
//! block reproduces the original payload byte for byte, so replay of a
//! compressed store is indistinguishable from replay of an uncompressed
//! one. `docs/FORMAT.md` in the repository root is the normative
//! specification of the `EDV` and `LZB` block layouts.
//!
//! ```rust
//! use trace_model::codec::{BinaryEncoder, TraceEncoder, DeltaVarintCodec, FrameCodec};
//! use trace_model::{TraceEvent, Timestamp, EventTypeId};
//!
//! # fn main() -> Result<(), trace_model::TraceError> {
//! let events: Vec<TraceEvent> = (0..200)
//!     .map(|i| TraceEvent::new(Timestamp::from_micros(i * 500), EventTypeId::new(1), i as u32))
//!     .collect();
//! let mut payload = Vec::new();
//! BinaryEncoder::new().encode(&events, &mut payload)?;
//!
//! let mut codec = DeltaVarintCodec::new();
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

use super::{
    decode_u64, encode_u64, varint_len, BinaryDecoder, BinaryEncoder, TraceDecoder, TraceEncoder,
};
use crate::{EventTypeId, Severity, Timestamp, TraceError, TraceEvent};

/// Identifier of a frame codec, stored in every format-v2 and -v3 frame.
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
}

impl CodecId {
    /// Every defined codec id, in wire-value order.
    pub const ALL: [CodecId; 3] = [CodecId::Identity, CodecId::DeltaVarint, CodecId::LzBlock];

    /// Decodes a codec id from its wire value.
    pub const fn from_u8(raw: u8) -> Option<CodecId> {
        match raw {
            0 => Some(CodecId::Identity),
            1 => Some(CodecId::DeltaVarint),
            2 => Some(CodecId::LzBlock),
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
        }
    }

    /// Creates a fresh codec instance implementing this id.
    pub fn new_codec(self) -> Box<dyn FrameCodec> {
        match self {
            CodecId::Identity => Box::new(IdentityCodec::new()),
            CodecId::DeltaVarint => Box::new(DeltaVarintCodec::new()),
            CodecId::LzBlock => Box::new(LzBlockCodec::new()),
        }
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A pluggable transformation between a frame's payload (the recorder's
/// encoded bytes) and its stored block.
///
/// Implementations may keep internal scratch state across calls (they are
/// `&mut self` precisely so hot write/replay loops reuse buffers), but a
/// call's outcome must depend only on its arguments.
pub trait FrameCodec: fmt::Debug + Send {
    /// The id stamped into frames this codec produces.
    fn id(&self) -> CodecId;

    /// Compresses `payload`, appending the stored block to `out`.
    ///
    /// Returns `Ok(false)` — with `out` unchanged — when the codec cannot
    /// usefully represent this payload (it is not in the structure the
    /// codec exploits, or the compressed form would not be smaller). The
    /// caller then stores the frame under [`CodecId::Identity`] instead.
    /// A `true` return guarantees [`FrameCodec::decompress`] reproduces
    /// `payload` exactly, and — for every codec except
    /// [`IdentityCodec`], whose block *is* the payload — that `out` grew
    /// by *fewer* bytes than `payload.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] only for internal failures; an unsuitable
    /// payload is the `Ok(false)` case, not an error.
    fn compress(&mut self, payload: &[u8], out: &mut Vec<u8>) -> Result<bool, TraceError>;

    /// Decompresses a stored `block` back into the original payload,
    /// appending exactly `raw_len` bytes to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Decode`] when the block is malformed or does
    /// not decompress to exactly `raw_len` bytes.
    fn decompress(
        &mut self,
        block: &[u8],
        raw_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), TraceError>;

    /// Decodes the events of a stored block straight into `out`,
    /// returning how many were appended — the replay fast path.
    ///
    /// The default implementation decompresses into `scratch` and decodes
    /// the restored `ETRC` payload with [`BinaryDecoder::decode_into`];
    /// structured codecs override it to skip the intermediate payload
    /// entirely. Both `scratch` and `out` are caller-owned so replay
    /// loops stay allocation-free across frames.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FrameCodec::decompress`], plus payload decode
    /// errors when the restored payload is not an `ETRC` block.
    fn decode_events(
        &mut self,
        block: &[u8],
        raw_len: usize,
        scratch: &mut Vec<u8>,
        out: &mut Vec<TraceEvent>,
    ) -> Result<usize, TraceError> {
        scratch.clear();
        self.decompress(block, raw_len, scratch)?;
        BinaryDecoder::new().decode_into(scratch, out)
    }
}

/// The identity codec: the stored block is the payload, byte for byte.
///
/// Frames stored under this codec in a format-v2 or -v3 segment are exactly as
/// replayable as format-v1 frames; it also serves as the per-frame
/// fallback when a configured codec refuses a payload.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityCodec {
    _private: (),
}

impl IdentityCodec {
    /// Creates an identity codec.
    pub fn new() -> Self {
        IdentityCodec::default()
    }
}

impl FrameCodec for IdentityCodec {
    fn id(&self) -> CodecId {
        CodecId::Identity
    }

    fn compress(&mut self, payload: &[u8], out: &mut Vec<u8>) -> Result<bool, TraceError> {
        out.extend_from_slice(payload);
        Ok(true)
    }

    fn decompress(
        &mut self,
        block: &[u8],
        raw_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), TraceError> {
        if block.len() != raw_len {
            return Err(TraceError::Decode {
                offset: 0,
                reason: format!(
                    "identity block is {} bytes but the frame says {raw_len}",
                    block.len()
                ),
            });
        }
        out.extend_from_slice(block);
        Ok(())
    }

    fn decode_events(
        &mut self,
        block: &[u8],
        raw_len: usize,
        _scratch: &mut Vec<u8>,
        out: &mut Vec<TraceEvent>,
    ) -> Result<usize, TraceError> {
        if block.len() != raw_len {
            return Err(TraceError::Decode {
                offset: 0,
                reason: format!(
                    "identity block is {} bytes but the frame says {raw_len}",
                    block.len()
                ),
            });
        }
        BinaryDecoder::new().decode_into(block, out)
    }
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

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

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

/// The delta + varint frame codec (`EDV` block format, id 1).
///
/// Only *canonical* `ETRC` payloads — byte sequences that
/// [`BinaryEncoder`] would itself produce for some event batch — are
/// compressed; anything else is refused so the caller stores the frame
/// verbatim. That restriction is what lets the codec round-trip payloads
/// byte for byte while actually re-encoding them: the stored block holds
/// the *events*, in a columnar layout, and decompression re-encodes them
/// through the canonical encoder.
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
pub struct DeltaVarintCodec {
    events: Vec<TraceEvent>,
    canonical: Vec<u8>,
    /// Distinct `(type, severity)` pairs of the window, in first-seen order.
    dict: Vec<(u16, u8)>,
    /// Reverse lookup into `dict`, so the encoder's per-event token
    /// resolution is O(1) instead of a dictionary scan.
    dict_lookup: std::collections::HashMap<(u16, u8), u8>,
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
    /// Creates a delta + varint codec (scratch buffers grow on use and
    /// are reused across frames).
    pub fn new() -> Self {
        DeltaVarintCodec::default()
    }

    /// Splits `events` into dictionary, tokens and per-type columns.
    /// Returns `false` when the dictionary would overflow.
    fn build_columns(&mut self, events: &[TraceEvent]) -> bool {
        self.dict.clear();
        self.dict_lookup.clear();
        self.types.clear();
        self.type_of_token.clear();
        self.tokens.clear();
        for column in &mut self.columns {
            column.clear();
        }
        for ev in events {
            let key = (ev.event_type.as_u16(), ev.severity.as_u8());
            let token = match self.dict_lookup.get(&key) {
                Some(&at) => usize::from(at),
                None => {
                    if self.dict.len() >= EDV_MAX_DICT {
                        return false;
                    }
                    let at = self.dict.len();
                    self.dict.push(key);
                    self.dict_lookup.insert(key, at as u8);
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
        let mut best: Option<(u8, usize)> = None; // (scheme, lag) of the smallest
        let mut best_len = usize::MAX;
        for lag in 1..=EDV_MAX_LAG.min(vals.len().max(1)) {
            for scheme in [EDV_SCHEME_PLAIN, EDV_SCHEME_RLE] {
                let len = Self::measure_column_as(vals, scheme, lag);
                if len < best_len {
                    best_len = len;
                    best = Some((scheme, lag));
                }
            }
        }
        let (scheme, lag) = best.expect("lag 1 is always tried");
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

    /// Parses an `EDV` block into `out`, appending the decoded events.
    fn parse(&mut self, block: &[u8], raw_len: usize) -> Result<&[TraceEvent], TraceError> {
        self.events.clear();
        let mut offset = 0usize;
        let (count, next) = decode_u64(block, offset)?;
        offset = next;
        let count = usize::try_from(count).map_err(|_| edv_error(offset, "event count"))?;
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
            return Ok(&self.events);
        }

        // Timestamps.
        let (first_ts, next) = decode_u64(block, offset)?;
        offset = next;
        self.ts.clear();
        self.ts.reserve(count);
        self.ts.push(first_ts);
        for _ in 1..count {
            let (delta, next) = decode_u64(block, offset)?;
            offset = next;
            let prev = *self.ts.last().expect("non-empty");
            let t = prev
                .checked_add(delta)
                .ok_or_else(|| edv_error(offset, "timestamp overflow"))?;
            self.ts.push(t);
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
            if Severity::from_u8(sev).is_none() {
                return Err(edv_error(
                    offset - 1,
                    format!("invalid severity byte {sev}"),
                ));
            }
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

        // Assemble events in recording order.
        self.cursors.clear();
        self.cursors.resize(self.types.len(), 0);
        self.events.reserve(count);
        for (i, &token) in self.tokens.iter().enumerate() {
            let (ty, sev) = self.dict[usize::from(token)];
            let at = self.type_of_token[usize::from(token)];
            let payload = self.columns[at][self.cursors[at]];
            self.cursors[at] += 1;
            self.events.push(
                TraceEvent::new(
                    Timestamp::from_nanos(self.ts[i]),
                    EventTypeId::new(ty),
                    payload,
                )
                .with_severity(Severity::from_u8(sev).expect("validated above")),
            );
        }
        Ok(&self.events)
    }
}

impl FrameCodec for DeltaVarintCodec {
    fn id(&self) -> CodecId {
        CodecId::DeltaVarint
    }

    fn compress(&mut self, payload: &[u8], out: &mut Vec<u8>) -> Result<bool, TraceError> {
        // Only canonical ETRC payloads are re-encoded: parse, then check
        // the canonical encoder reproduces the payload byte for byte (a
        // payload with, say, overlong varints decodes fine but would not
        // survive the round trip — refuse it instead of corrupting it).
        self.events.clear();
        if BinaryDecoder::new()
            .decode_into(payload, &mut self.events)
            .is_err()
        {
            return Ok(false);
        }
        self.canonical.clear();
        let events = std::mem::take(&mut self.events);
        let encode_result = BinaryEncoder::new().encode(&events, &mut self.canonical);
        self.events = events;
        if encode_result.is_err() || self.canonical != payload {
            return Ok(false);
        }

        let start = out.len();
        encode_u64(self.events.len() as u64, out);
        if self.events.is_empty() {
            if out.len() - start >= payload.len() {
                out.truncate(start);
                return Ok(false);
            }
            return Ok(true);
        }
        let events = std::mem::take(&mut self.events);
        let ok = self.build_columns(&events);
        if !ok {
            self.events = events;
            out.truncate(start);
            return Ok(false);
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
        self.events = events;

        // Dictionary.
        encode_u64(self.dict.len() as u64, out);
        for &(ty, sev) in &self.dict {
            encode_u64(u64::from(ty), out);
            out.push(sev);
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

        // Payload columns.
        for at in 0..self.types.len() {
            if !self.columns[at].is_empty() {
                Self::encode_column(&self.columns[at], out);
            }
        }

        if out.len() - start >= payload.len() {
            out.truncate(start);
            return Ok(false);
        }
        Ok(true)
    }

    fn decompress(
        &mut self,
        block: &[u8],
        raw_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), TraceError> {
        self.parse(block, raw_len)?;
        let events = std::mem::take(&mut self.events);
        let start = out.len();
        let result = BinaryEncoder::new().encode(&events, out);
        self.events = events;
        result?;
        if out.len() - start != raw_len {
            return Err(edv_error(
                0,
                format!(
                    "block restores {} bytes but the frame says {raw_len}",
                    out.len() - start
                ),
            ));
        }
        Ok(())
    }

    fn decode_events(
        &mut self,
        block: &[u8],
        raw_len: usize,
        _scratch: &mut Vec<u8>,
        out: &mut Vec<TraceEvent>,
    ) -> Result<usize, TraceError> {
        let events = self.parse(block, raw_len)?;
        let appended = events.len();
        out.extend_from_slice(events);
        Ok(appended)
    }
}

/// The LZ77 block codec (id 2), backed by the vendored [`lzb`] decoder.
///
/// Decode-only: it replays the `LZB` frames of stores written by earlier
/// builds, and [`FrameCodec::compress`] refuses every payload, so a
/// recompression pass targeting it re-frames without compressing.
#[derive(Debug, Clone, Copy, Default)]
pub struct LzBlockCodec {
    _private: (),
}

impl LzBlockCodec {
    /// Creates an LZ block codec.
    pub fn new() -> Self {
        LzBlockCodec::default()
    }
}

impl FrameCodec for LzBlockCodec {
    fn id(&self) -> CodecId {
        CodecId::LzBlock
    }

    fn compress(&mut self, _payload: &[u8], _out: &mut Vec<u8>) -> Result<bool, TraceError> {
        Ok(false)
    }

    fn decompress(
        &mut self,
        block: &[u8],
        raw_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), TraceError> {
        lzb::decompress(block, raw_len, out).map_err(|error| TraceError::Decode {
            offset: 0,
            reason: format!("LZB block: {error}"),
        })
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

    fn assert_round_trip(codec: &mut dyn FrameCodec, events: &[TraceEvent]) {
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
        assert_eq!(CodecId::from_u8(3), None);
        assert_eq!(CodecId::DeltaVarint.to_string(), "delta-varint");
    }

    #[test]
    fn identity_round_trips_any_bytes() {
        let mut codec = IdentityCodec::new();
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
        let mut codec = DeltaVarintCodec::new();
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
        let mut codec = DeltaVarintCodec::new();
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
        let mut codec = DeltaVarintCodec::new();
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
        let mut codec = DeltaVarintCodec::new();
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
        let mut codec = LzBlockCodec::new();
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
}
