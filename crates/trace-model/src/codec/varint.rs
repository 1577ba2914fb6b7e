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
/// encoding of its value (its last byte is not a zero continuation).
/// `None`, and `*at` left as it was, when the bytes run out, the varint
/// runs past 10 bytes or overflows a `u64`, or it is not minimal.
///
/// A varint of up to four bytes — every field of most events, and a
/// timestamp delta below 2²⁸ ns — is read from one 4-byte window behind
/// one bounds check, without a loop, so that a row loop calling this
/// inlines it whole. Longer varints and the last three bytes of a buffer
/// take the byte-at-a-time loop.
#[inline(always)]
pub fn take_minimal_u64(bytes: &[u8], at: &mut usize) -> Option<u64> {
    // The cursor goes in and comes out by value, so that a caller's stays
    // in a register across the fallback's call.
    let window = bytes.get(*at..).and_then(|rest| rest.get(..4));
    let (value, next) = match window.and_then(|window| <[u8; 4]>::try_from(window).ok()) {
        Some(window) => match read_window(u32::from_le_bytes(window)) {
            Some((value, len)) => (value?, *at + len),
            None => read_bytewise(bytes, *at)?,
        },
        None => read_bytewise(bytes, *at)?,
    };
    *at = next;
    Some(value)
}

/// The varint that opens the little-endian 4-byte `window`, when it ends
/// inside it: its value — `None` when it is not minimal — and its length.
/// `None` when all four bytes continue.
///
/// The length is found by branches, not by arithmetic on the bytes, so
/// that a row loop predicts where the next varint starts instead of
/// waiting for this one's bytes.
#[inline(always)]
fn read_window(window: u32) -> Option<(Option<u64>, usize)> {
    let len = if window & 0x80 == 0 {
        return Some((Some(u64::from(window & 0x7f)), 1));
    } else if window & 0x8000 == 0 {
        2
    } else if window & 0x0080_0000 == 0 {
        3
    } else if window & 0x8000_0000 == 0 {
        4
    } else {
        return None;
    };
    let kept = window & (u32::MAX >> (32 - 8 * len));
    let value = (kept & 0x7f)
        | (kept >> 1 & 0x3f80)
        | (kept >> 2 & 0x001f_c000)
        | (kept >> 3 & 0x0fe0_0000);
    // Not minimal when the last byte is zero: the value fits a byte less.
    let minimal = value >> (7 * (len - 1)) != 0;
    Some((minimal.then_some(u64::from(value)), len as usize))
}

/// [`take_minimal_u64`] a byte at a time, from `at`: varints past four
/// bytes, and the last three bytes of a buffer. The value and the offset
/// past it. A tenth byte holds one bit.
#[inline(never)]
fn read_bytewise(bytes: &[u8], at: usize) -> Option<(u64, usize)> {
    let rest = bytes.get(at..)?;
    let mut value = 0u64;
    for (index, &byte) in rest.iter().enumerate().take(10) {
        let bits = u64::from(byte & 0x7f);
        if index == 9 && bits > 1 {
            return None;
        }
        value |= bits << (7 * index);
        if byte < 0x80 {
            return (index == 0 || byte != 0).then_some((value, at + index + 1));
        }
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

    /// [`take_minimal_u64`] as FORMAT.md words it, a byte at a time: the
    /// value and the offset past it, or `None` for a varint that is
    /// truncated, runs past 10 bytes, overflows a `u64` or is not minimal.
    fn reference(bytes: &[u8], at: usize) -> Option<(u64, usize)> {
        let (mut value, mut index) = (0u64, 0);
        loop {
            let byte = *bytes.get(at + index)?;
            let bits = u64::from(byte & 0x7f);
            // The tenth byte holds bit 63 alone.
            if index == 9 && bits > 1 {
                return None;
            }
            value |= bits << (7 * index);
            index += 1;
            if byte < 0x80 {
                return (index == 1 || byte != 0).then_some((value, at + index));
            }
            if index == 10 {
                return None;
            }
        }
    }

    /// Holds [`take_minimal_u64`] at `at` of `bytes` to [`reference`]:
    /// the same value and advance, or the same `None` with the cursor
    /// where it was.
    fn matches_reference(bytes: &[u8], at: usize) {
        let mut cursor = at;
        let taken = take_minimal_u64(bytes, &mut cursor);
        let expected = reference(bytes, at);
        if taken.map(|value| (value, cursor)) != expected || (taken.is_none() && cursor != at) {
            panic!("{bytes:02x?} at {at}: {taken:?} to {cursor}, the reference reads {expected:?}");
        }
    }

    /// Every input of one to three bytes, followed by `trailer`, held to
    /// the reference.
    fn sweep_up_to_three_bytes(trailer: &[u8]) {
        let mut bytes = [0u8; 6];
        for len in 1..=3 {
            bytes[len..len + trailer.len()].copy_from_slice(trailer);
            for input in 0..1u32 << (8 * len) {
                bytes[..len].copy_from_slice(&input.to_le_bytes()[..len]);
                matches_reference(&bytes[..len + trailer.len()], 0);
            }
        }
    }

    #[test]
    fn every_varint_of_up_to_three_bytes_at_the_end_of_a_buffer_reads_as_the_reference_does() {
        sweep_up_to_three_bytes(&[]);
    }

    #[test]
    fn every_varint_of_up_to_three_bytes_ahead_of_more_reads_as_the_reference_does() {
        // Where the 4-byte window reads it.
        sweep_up_to_three_bytes(&[0x81, 0x01, 0x00]);
    }

    #[test]
    fn every_power_of_two_boundary_reads_as_the_reference_does() {
        let trailers: [&[u8]; 5] = [&[], &[0x00], &[0x80, 0x80], &[0x7f; 3], &[0xff; 12]];
        for shift in 0..64 {
            let power = 1u64 << shift;
            for value in [power - 1, power, power + 1, u64::MAX] {
                let mut encoded = Vec::new();
                encode_u64(value, &mut encoded);
                // Minimal, cut short, and padded with a zero continuation.
                let mut padded = encoded.clone();
                *padded.last_mut().unwrap() |= 0x80;
                padded.push(0);
                for varint in [&encoded[..], &encoded[..encoded.len() - 1], &padded] {
                    for trailer in trailers {
                        let mut bytes = varint.to_vec();
                        bytes.extend_from_slice(trailer);
                        matches_reference(&bytes, 0);
                        // Behind a byte the cursor skips.
                        bytes.insert(0, 0x80);
                        matches_reference(&bytes, 1);
                    }
                }
            }
        }
    }

    mod generated {
        use super::matches_reference;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2_000))]

            #[test]
            fn any_varint_of_four_to_twelve_bytes_reads_as_the_reference_does(
                bytes in prop::collection::vec(any::<u8>(), 4..13),
                high in prop::collection::vec(any::<bool>(), 12),
                at in 0usize..4,
            ) {
                // Continuation bits set at random, so that long varints,
                // ones that end in a zero byte and ones that run off the end
                // all come up.
                let bytes: Vec<u8> = bytes
                    .iter()
                    .zip(&high)
                    .map(|(&byte, &high)| if high { byte | 0x80 } else { byte & 0x7f })
                    .collect();
                matches_reference(&bytes, at.min(bytes.len()));
            }
        }
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
