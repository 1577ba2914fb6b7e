//! Trace serialisation codecs.
//!
//! The *trace* codec, [`binary`], turns event batches into bytes: a
//! compact delta/varint encoding (`ETRC`), the format used by the
//! recording sink for the trace-volume figures (this is what the recorded
//! trace would actually occupy on the storage device). It is lossless for
//! the [`TraceEvent`] fields it carries and round-trips exactly.
//!
//! On top of it, the [`frame`] module defines the five *block* formats
//! a durable store may keep a frame's payload as — the payload itself, a
//! columnar delta+varint re-encoding, LZ77 blocks of earlier builds,
//! packed varint rows coded against the frame's meta, and rows coded
//! against a template of their segment — and the one [`BlockCodec`] that
//! reads them all, one `match` on the frame's [`CodecId`];
//! [`BlockChooser`], which picks the smallest block to write, and
//! [`SegmentCoder`], which builds a segment's template table around it. Every varint of every layout is read and written by
//! [`varint`]. See `docs/FORMAT.md` at the repository root for the
//! normative block formats.

pub mod binary;
pub mod frame;
pub mod template;
pub mod varint;

pub use binary::{BinaryDecoder, BinaryEncoder};
pub use frame::{BlockChooser, BlockCodec, CodecId, FrameContext};
pub use template::{SegmentCoder, TemplateTable};
pub(crate) use varint::{decode_u64, encode_u64, take_minimal_u64, varint_len};

use crate::{TraceError, TraceEvent};

/// A codec that turns a batch of events into bytes.
pub trait TraceEncoder {
    /// Appends the encoded form of `events` to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if the events cannot be represented in the
    /// target format.
    fn encode(&mut self, events: &[TraceEvent], out: &mut Vec<u8>) -> Result<(), TraceError>;
}

/// A codec that turns bytes back into events.
pub trait TraceDecoder {
    /// Decodes every event contained in `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Decode`] if the input is malformed or
    /// truncated.
    fn decode(&mut self, bytes: &[u8]) -> Result<Vec<TraceEvent>, TraceError>;

    /// Decodes every event contained in `bytes`, appending to `out`, and
    /// returns how many were appended — the allocation-free path for hot
    /// replay loops that drain many blocks into one buffer. On error,
    /// events already appended from a partially valid prefix may remain
    /// in `out`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceDecoder::decode`].
    fn decode_into(
        &mut self,
        bytes: &[u8],
        out: &mut Vec<TraceEvent>,
    ) -> Result<usize, TraceError> {
        let events = self.decode(bytes)?;
        let appended = events.len();
        out.extend(events);
        Ok(appended)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventTypeId, Severity, Timestamp};

    fn sample_events() -> Vec<TraceEvent> {
        (0..200u64)
            .map(|i| {
                TraceEvent::new(
                    Timestamp::from_micros(i * 137),
                    EventTypeId::new((i % 7) as u16),
                    (i * 3) as u32,
                )
                .with_severity(if i % 50 == 0 {
                    Severity::Error
                } else {
                    Severity::Info
                })
            })
            .collect()
    }

    #[test]
    fn binary_round_trips_and_beats_the_raw_encoding() {
        let events = sample_events();
        let mut bin_out = Vec::new();
        BinaryEncoder::new().encode(&events, &mut bin_out).unwrap();
        assert_eq!(BinaryDecoder::new().decode(&bin_out).unwrap(), events);
        assert!(bin_out.len() < events.len() * TraceEvent::RAW_ENCODED_SIZE);
    }
}
