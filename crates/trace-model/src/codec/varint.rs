//! LEB128 variable-length integers and the zigzag map onto them: the one
//! implementation behind every varint layout — `ETRC`, the frame codecs'
//! columns and rows, template tables, and the store's v3 frame meta,
//! sidecar rows and v4 table section (`docs/FORMAT.md`).

use crate::TraceError;

/// Appends `value` to `out` as an LEB128 varint (1–10 bytes).
#[inline]
pub fn encode_u64(mut value: u64, out: &mut Vec<u8>) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Number of bytes [`encode_u64`] emits for `value`, without emitting
/// them — the sizing primitive behind the frame codec's measure-then-
/// encode column passes.
#[inline]
pub fn varint_len(value: u64) -> usize {
    // Bits in the value (at least one, so zero still costs a byte),
    // seven payload bits per varint byte: `(9 * bits + 64) / 64` is
    // `ceil(bits / 7)` for every `bits` from 1 to 64, without a division.
    let bits = 64 - (value | 1).leading_zeros() as usize;
    (9 * bits + 64) / 64
}

/// Decodes an LEB128 varint starting at `offset`, returning the value and
/// the offset just past it.
pub(crate) fn decode_u64(bytes: &[u8], offset: usize) -> Result<(u64, usize), TraceError> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    let mut pos = offset;
    loop {
        let byte = *bytes.get(pos).ok_or_else(|| TraceError::Decode {
            offset: pos,
            reason: "truncated varint".into(),
        })?;
        if shift >= 63 && byte > 1 {
            return Err(TraceError::Decode {
                offset: pos,
                reason: "varint overflows u64".into(),
            });
        }
        value |= u64::from(byte & 0x7f) << shift;
        pos += 1;
        if byte & 0x80 == 0 {
            return Ok((value, pos));
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceError::Decode {
                offset: pos,
                reason: "varint longer than 10 bytes".into(),
            });
        }
    }
}

/// Reads the varint at `*at`, advancing past it, when it is the shortest
/// encoding of its value (its last byte is not a zero continuation); the
/// one-byte case, most fields of most events, without a call. `None` when
/// the bytes run out, the varint runs past 10 bytes or overflows a `u64`,
/// or it is not minimal.
#[inline]
pub fn take_minimal_u64(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let rest = bytes.get(*at..)?;
    let first = *rest.first()?;
    if first < 0x80 {
        *at += 1;
        return Some(u64::from(first));
    }
    // The longer ones — a timestamp delta, most often — in place, without
    // the error values of `decode_u64`: a tenth byte holds one bit.
    let mut value = u64::from(first & 0x7f);
    let mut index = 1;
    while index < 10 {
        let byte = *rest.get(index)?;
        let bits = u64::from(byte & 0x7f);
        if index == 9 && bits > 1 {
            return None;
        }
        value |= bits << (7 * index);
        if byte < 0x80 {
            *at += index + 1;
            return (byte != 0).then_some(value);
        }
        index += 1;
    }
    None
}

/// Maps a signed value onto an unsigned one that is small when the value
/// is near zero (0, −1, 1, −2 … → 0, 1, 2, 3 …), for a varint. A wrapping
/// `u64` difference is zigzagged as `delta as i64`.
#[inline]
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// The inverse of [`zigzag`].
#[inline]
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value: u64) {
        let mut buf = Vec::new();
        encode_u64(value, &mut buf);
        let (decoded, consumed) = decode_u64(&buf, 0).unwrap();
        assert_eq!(decoded, value);
        assert_eq!(consumed, buf.len());
        assert_eq!(varint_len(value), buf.len(), "measured size of {value}");
    }

    #[test]
    fn varint_len_matches_encode_at_every_boundary() {
        let mut buf = Vec::new();
        for shift in 0..64 {
            for value in [1u64 << shift, (1u64 << shift) - 1, (1u64 << shift) + 1] {
                buf.clear();
                encode_u64(value, &mut buf);
                assert_eq!(varint_len(value), buf.len(), "value {value:#x}");
            }
        }
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn small_values_fit_one_byte() {
        for value in 0..128u64 {
            let mut buf = Vec::new();
            encode_u64(value, &mut buf);
            assert_eq!(buf.len(), 1);
        }
    }

    #[test]
    fn round_trips_representative_values() {
        for value in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX,
        ] {
            round_trip(value);
        }
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut buf = Vec::new();
        encode_u64(u64::MAX, &mut buf);
        buf.pop();
        assert!(matches!(
            decode_u64(&buf, 0),
            Err(TraceError::Decode { .. })
        ));
        assert!(matches!(decode_u64(&[], 0), Err(TraceError::Decode { .. })));
    }

    #[test]
    fn overlong_input_is_an_error() {
        // 11 continuation bytes cannot be a valid u64 varint.
        let buf = vec![0xff; 11];
        assert!(matches!(
            decode_u64(&buf, 0),
            Err(TraceError::Decode { .. })
        ));
    }

    #[test]
    fn varints_are_read_only_in_their_shortest_form() {
        let take = |bytes: &[u8]| {
            let mut at = 0;
            take_minimal_u64(bytes, &mut at).map(|value| (value, at))
        };
        for value in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            1 << 30,
            u64::MAX >> 1,
            u64::MAX,
        ] {
            let mut bytes = Vec::new();
            encode_u64(value, &mut bytes);
            assert_eq!(bytes.len(), varint_len(value), "{value}");
            assert_eq!(take(&bytes), Some((value, bytes.len())), "{value}");
            // Cut short, or padded with a continuation of zero.
            assert_eq!(take(&bytes[..bytes.len() - 1]), None, "{value}");
            let last = bytes.len() - 1;
            bytes[last] |= 0x80;
            bytes.push(0);
            assert_eq!(take(&bytes), None, "{value} padded");
        }
        assert_eq!(take(&[0x80, 0x80, 0x80, 0x80, 0x04]), Some((1 << 30, 5)));
        let mut overflow = vec![0xFF; 9];
        overflow.push(0x02);
        assert_eq!(take(&overflow), None, "65 bits");
        assert_eq!(take(&[0xFF; 16]), None, "endless");
        assert_eq!(take(&[]), None);
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_small_and_round_trips() {
        for (value, zigzagged) in [(0, 0), (-1, 1), (1, 2), (-2, 3), (i64::MAX, u64::MAX - 1)] {
            assert_eq!(zigzag(value), zigzagged, "{value}");
        }
        assert_eq!(zigzag(i64::MIN), u64::MAX);
        for value in [0, 1, -1, 63, -64, i64::MAX, i64::MIN, 0x1234_5678_9abc] {
            assert_eq!(unzigzag(zigzag(value)), value);
        }
        // A wrapping `u64` difference: 3 - 5 zigzags like -2.
        assert_eq!(zigzag(3u64.wrapping_sub(5) as i64), 3);
    }

    #[test]
    fn decoding_respects_offset() {
        let mut buf = vec![0xAA, 0xBB];
        encode_u64(300, &mut buf);
        let (value, next) = decode_u64(&buf, 2).unwrap();
        assert_eq!(value, 300);
        assert_eq!(next, buf.len());
    }
}
