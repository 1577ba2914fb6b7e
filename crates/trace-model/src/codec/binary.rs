//! Compact binary trace format.
//!
//! Layout of an encoded block:
//!
//! ```text
//! magic  "ETRC"            4 bytes
//! version                  1 byte  (currently 1)
//! event count              varint
//! per event:
//!   timestamp delta (ns)   varint   (delta from previous event, first is absolute)
//!   event type id          varint
//!   payload                varint
//!   severity               1 byte
//! ```
//!
//! Timestamps are delta-encoded because consecutive multimedia events are
//! microseconds apart, so deltas almost always fit in one or two bytes.

use super::{decode_u64, encode_u64, take_minimal_u64, varint_len, TraceDecoder, TraceEncoder};
use crate::{EventTypeId, Severity, Timestamp, TraceError, TraceEvent};

const MAGIC: &[u8; 4] = b"ETRC";
const VERSION: u8 = 1;

/// Encoder for the compact binary trace format.
///
/// ```rust
/// use trace_model::codec::{BinaryEncoder, BinaryDecoder, TraceEncoder, TraceDecoder};
/// use trace_model::{TraceEvent, Timestamp, EventTypeId};
///
/// # fn main() -> Result<(), trace_model::TraceError> {
/// let events = vec![TraceEvent::new(Timestamp::from_micros(10), EventTypeId::new(1), 7)];
/// let mut bytes = Vec::new();
/// BinaryEncoder::new().encode(&events, &mut bytes)?;
/// let decoded = BinaryDecoder::new().decode(&bytes)?;
/// assert_eq!(decoded, events);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryEncoder {
    _private: (),
}

impl BinaryEncoder {
    /// Creates a binary encoder.
    pub fn new() -> Self {
        BinaryEncoder::default()
    }
}

impl TraceEncoder for BinaryEncoder {
    fn encode(&mut self, events: &[TraceEvent], out: &mut Vec<u8>) -> Result<(), TraceError> {
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        encode_u64(events.len() as u64, out);
        let mut previous = 0u64;
        for ev in events {
            let ts = ev.timestamp.as_nanos();
            let delta = ts.checked_sub(previous).ok_or_else(|| TraceError::Decode {
                offset: out.len(),
                reason: format!(
                    "events must be timestamp-ordered for binary encoding ({} after {})",
                    ts, previous
                ),
            })?;
            encode_u64(delta, out);
            encode_u64(u64::from(ev.event_type.as_u16()), out);
            encode_u64(u64::from(ev.payload), out);
            out.push(ev.severity.as_u8());
            previous = ts;
        }
        Ok(())
    }
}

/// The bytes [`BinaryEncoder`] writes ahead of a batch of `count` events:
/// magic, version and count.
pub(crate) fn header_len(count: usize) -> usize {
    MAGIC.len() + 1 + varint_len(count as u64)
}

/// Decoder for the compact binary trace format.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryDecoder {
    _private: (),
}

impl BinaryDecoder {
    /// Creates a binary decoder.
    pub fn new() -> Self {
        BinaryDecoder::default()
    }
}

impl TraceDecoder for BinaryDecoder {
    fn decode(&mut self, bytes: &[u8]) -> Result<Vec<TraceEvent>, TraceError> {
        let mut events = Vec::new();
        self.decode_into(bytes, &mut events)?;
        Ok(events)
    }

    fn decode_into(
        &mut self,
        bytes: &[u8],
        out: &mut Vec<TraceEvent>,
    ) -> Result<usize, TraceError> {
        if bytes.len() < MAGIC.len() + 1 {
            return Err(TraceError::Decode {
                offset: 0,
                reason: "input shorter than header".into(),
            });
        }
        if &bytes[..4] != MAGIC {
            return Err(TraceError::Decode {
                offset: 0,
                reason: "bad magic, not an ETRC trace".into(),
            });
        }
        if bytes[4] != VERSION {
            return Err(TraceError::Decode {
                offset: 4,
                reason: format!("unsupported version {}", bytes[4]),
            });
        }
        let mut offset = 5;
        let (count, next) = decode_u64(bytes, offset)?;
        offset = next;
        let count = usize::try_from(count).map_err(|_| TraceError::Decode {
            offset,
            reason: "event count does not fit in usize".into(),
        })?;

        out.reserve(count.min(1 << 20));
        let mut previous = 0u64;
        for _ in 0..count {
            let (delta, next) = decode_u64(bytes, offset)?;
            offset = next;
            let (ty, next) = decode_u64(bytes, offset)?;
            offset = next;
            let (payload, next) = decode_u64(bytes, offset)?;
            offset = next;
            let severity_byte = *bytes.get(offset).ok_or_else(|| TraceError::Decode {
                offset,
                reason: "truncated severity".into(),
            })?;
            offset += 1;

            let ts = previous
                .checked_add(delta)
                .ok_or_else(|| TraceError::Decode {
                    offset,
                    reason: "timestamp overflow".into(),
                })?;
            previous = ts;
            let event_type = u16::try_from(ty).map_err(|_| TraceError::Decode {
                offset,
                reason: format!("event type id {ty} out of range"),
            })?;
            let payload = u32::try_from(payload).map_err(|_| TraceError::Decode {
                offset,
                reason: format!("payload {payload} out of range"),
            })?;
            let severity = Severity::from_u8(severity_byte).ok_or_else(|| TraceError::Decode {
                offset: offset - 1,
                reason: format!("invalid severity byte {severity_byte}"),
            })?;
            out.push(
                TraceEvent::new(
                    Timestamp::from_nanos(ts),
                    EventTypeId::new(event_type),
                    payload,
                )
                .with_severity(severity),
            );
        }
        if offset != bytes.len() {
            return Err(TraceError::Decode {
                offset,
                reason: format!("{} trailing bytes after last event", bytes.len() - offset),
            });
        }
        Ok(count)
    }
}

/// Decodes `bytes` into `out` (cleared first) when they are a *canonical*
/// `ETRC` block — exactly what [`BinaryEncoder`] emits for some batch —
/// and returns whether they were. Canonical is "decodes, and every varint
/// is minimal": the encoder emits nothing else, so this is the same test
/// as decoding, re-encoding and comparing bytes, without the re-encode.
/// What `false` leaves in `out` is unspecified.
pub(crate) fn decode_canonical(bytes: &[u8], out: &mut Vec<TraceEvent>) -> bool {
    decode_canonical_with(bytes, out, |_| {})
}

/// [`decode_canonical`], handing `each` every event as it is decoded: the
/// one pass a caller that codes the events anew folds its own work into.
pub(crate) fn decode_canonical_with(
    bytes: &[u8],
    out: &mut Vec<TraceEvent>,
    mut each: impl FnMut(&TraceEvent),
) -> bool {
    out.clear();
    if bytes.len() < MAGIC.len() + 1 || &bytes[..4] != MAGIC || bytes[4] != VERSION {
        return false;
    }
    let mut at = 5;
    let Some(count) = take_minimal_u64(bytes, &mut at) else {
        return false;
    };
    // Every event costs at least four bytes: refuse a count the bytes
    // cannot hold before reserving for it.
    if count > ((bytes.len() - at) / 4) as u64 {
        return false;
    }
    out.reserve(count as usize);
    let mut previous = 0u64;
    for _ in 0..count {
        let (Some(delta), Some(ty), Some(payload)) = (
            take_minimal_u64(bytes, &mut at),
            take_minimal_u64(bytes, &mut at),
            take_minimal_u64(bytes, &mut at),
        ) else {
            return false;
        };
        let (Some(timestamp), Ok(ty), Ok(payload), Some(severity)) = (
            previous.checked_add(delta),
            u16::try_from(ty),
            u32::try_from(payload),
            bytes.get(at).copied().and_then(Severity::from_u8),
        ) else {
            return false;
        };
        at += 1;
        previous = timestamp;
        let event = TraceEvent::new(
            Timestamp::from_nanos(timestamp),
            EventTypeId::new(ty),
            payload,
        )
        .with_severity(severity);
        each(&event);
        out.push(event);
    }
    at == bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(us: u64, ty: u16, payload: u32, sev: Severity) -> TraceEvent {
        TraceEvent::new(Timestamp::from_micros(us), EventTypeId::new(ty), payload)
            .with_severity(sev)
    }

    #[test]
    fn empty_batch_round_trips() {
        let mut out = Vec::new();
        BinaryEncoder::new().encode(&[], &mut out).unwrap();
        assert_eq!(BinaryDecoder::new().decode(&out).unwrap(), Vec::new());
    }

    #[test]
    fn round_trip_preserves_all_fields() {
        let events = vec![
            ev(0, 0, 0, Severity::Debug),
            ev(13, 5, 42, Severity::Info),
            ev(13, 5, 42, Severity::Warning),
            ev(10_000_000, u16::MAX, u32::MAX, Severity::Error),
        ];
        let mut out = Vec::new();
        BinaryEncoder::new().encode(&events, &mut out).unwrap();
        assert_eq!(BinaryDecoder::new().decode(&out).unwrap(), events);
    }

    #[test]
    fn dense_events_encode_far_below_raw_size() {
        let events: Vec<_> = (0..1000)
            .map(|i| ev(i * 25, (i % 4) as u16, 1, Severity::Info))
            .collect();
        let mut out = Vec::new();
        BinaryEncoder::new().encode(&events, &mut out).unwrap();
        assert!(out.len() < events.len() * 8);
    }

    #[test]
    fn unordered_events_are_rejected_at_encode_time() {
        let events = vec![ev(10, 0, 0, Severity::Info), ev(5, 0, 0, Severity::Info)];
        let mut out = Vec::new();
        assert!(BinaryEncoder::new().encode(&events, &mut out).is_err());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut out = Vec::new();
        BinaryEncoder::new().encode(&[], &mut out).unwrap();
        out[0] = b'X';
        assert!(BinaryDecoder::new().decode(&out).is_err());
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut out = Vec::new();
        BinaryEncoder::new().encode(&[], &mut out).unwrap();
        out[4] = 99;
        assert!(BinaryDecoder::new().decode(&out).is_err());
    }

    #[test]
    fn truncation_is_detected() {
        let events = vec![ev(1, 1, 1, Severity::Info), ev(2, 2, 2, Severity::Info)];
        let mut out = Vec::new();
        BinaryEncoder::new().encode(&events, &mut out).unwrap();
        out.truncate(out.len() - 1);
        assert!(BinaryDecoder::new().decode(&out).is_err());
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let events = vec![ev(1, 1, 1, Severity::Info)];
        let mut out = Vec::new();
        BinaryEncoder::new().encode(&events, &mut out).unwrap();
        out.push(0);
        assert!(BinaryDecoder::new().decode(&out).is_err());
    }

    #[test]
    fn invalid_severity_byte_is_detected() {
        let events = vec![ev(1, 1, 1, Severity::Info)];
        let mut out = Vec::new();
        BinaryEncoder::new().encode(&events, &mut out).unwrap();
        let last = out.len() - 1;
        out[last] = 7;
        assert!(BinaryDecoder::new().decode(&out).is_err());
    }

    #[test]
    fn short_input_is_rejected() {
        assert!(BinaryDecoder::new().decode(b"ET").is_err());
        assert!(BinaryDecoder::new().decode(b"").is_err());
    }

    /// The re-encoding definition of canonical that `decode_canonical`
    /// stands in for.
    fn reencodes_to_itself(bytes: &[u8]) -> Option<Vec<TraceEvent>> {
        let events = BinaryDecoder::new().decode(bytes).ok()?;
        let mut again = Vec::new();
        BinaryEncoder::new().encode(&events, &mut again).ok()?;
        (again == bytes).then_some(events)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// Encoded batches, then one edit: none, a flipped byte, an
        /// inserted byte, or a one-byte varint spelled in two bytes.
        #[test]
        fn canonical_is_what_the_encoder_writes(
            raw in prop::collection::vec((0u64..300, 0u16..200, 0u32..300, 0u8..4), 0..12),
            edit in 0u8..4,
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let mut ts = 0;
            let events: Vec<TraceEvent> = raw
                .into_iter()
                .map(|(delta, ty, payload, sev)| {
                    ts += delta;
                    TraceEvent::new(Timestamp::from_nanos(ts), EventTypeId::new(ty), payload)
                        .with_severity(Severity::from_u8(sev).unwrap())
                })
                .collect();
            let mut bytes = Vec::new();
            BinaryEncoder::new().encode(&events, &mut bytes).unwrap();
            let at = at % bytes.len();
            match edit {
                1 => bytes[at] ^= byte | 1,
                2 => bytes.insert(at, byte),
                3 if bytes[at] < 0x80 => {
                    bytes[at] |= 0x80;
                    bytes.insert(at + 1, 0);
                }
                _ => {}
            }
            let mut decoded = Vec::new();
            let canonical = decode_canonical(&bytes, &mut decoded);
            let expected = reencodes_to_itself(&bytes);
            prop_assert_eq!(canonical, expected.is_some());
            if let Some(expected) = expected {
                prop_assert_eq!(decoded, expected);
            }
        }
    }
}
