//! Property tests for the frame codec layer: every codec must round-trip
//! any canonical `ETRC` payload byte for byte (encode → stored block →
//! decompress), decode the same events straight from the stored block
//! (`decode_events`), and refuse — rather than corrupt — payloads it
//! cannot represent. And every decoder takes any block with any claimed
//! raw length to a value or an error: never a panic, never an allocation
//! sized by the claim alone.

use proptest::prelude::*;

use trace_model::codec::{
    BinaryDecoder, BinaryEncoder, CodecId, FrameCodec, TraceDecoder, TraceEncoder,
};
use trace_model::{EventTypeId, Severity, Timestamp, TraceEvent};

/// Strategy producing a timestamp-ordered vector of arbitrary events.
fn ordered_events(max_len: usize) -> impl Strategy<Value = Vec<TraceEvent>> {
    prop::collection::vec(
        (0u64..5_000_000, 0u16..600, any::<u32>(), 0u8..4),
        0..max_len,
    )
    .prop_map(|raw| {
        let mut ts = 0u64;
        raw.into_iter()
            .map(|(delta, ty, payload, sev)| {
                ts += delta;
                TraceEvent::new(Timestamp::from_nanos(ts), EventTypeId::new(ty), payload)
                    .with_severity(Severity::from_u8(sev).expect("severity in range"))
            })
            .collect()
    })
}

/// Strategy producing *structured* event streams: a few periodic types
/// with near-linear payloads, the shape real traces have (these must
/// actually compress, not just round-trip).
fn periodic_events(max_len: usize) -> impl Strategy<Value = Vec<TraceEvent>> {
    (1usize..6, 64usize..max_len.max(65), any::<u64>()).prop_map(|(types, len, seed)| {
        (0..len as u64)
            .map(|i| {
                let ty = (i % types as u64) as u16;
                let jitter = (seed.wrapping_mul(i + 1).wrapping_mul(0x9E37_79B9)) % 977;
                TraceEvent::new(
                    Timestamp::from_nanos(i * 12_345 + jitter),
                    EventTypeId::new(ty),
                    (i / types as u64) as u32,
                )
            })
            .collect()
    })
}

fn check_round_trip(codec: &mut dyn FrameCodec, events: &[TraceEvent]) {
    let mut payload = Vec::new();
    BinaryEncoder::new().encode(events, &mut payload).unwrap();
    let mut block = Vec::new();
    let compressed = codec.compress(&payload, &mut block).unwrap();
    if !compressed {
        // Refusal is a valid outcome (incompressible payload); it must
        // leave the output untouched.
        assert!(block.is_empty());
        return;
    }
    if codec.id() != CodecId::Identity {
        assert!(
            block.len() < payload.len(),
            "a true return promises a smaller block ({} vs {})",
            block.len(),
            payload.len()
        );
    }
    let mut restored = Vec::new();
    codec
        .decompress(&block, payload.len(), &mut restored)
        .unwrap();
    assert_eq!(&restored, &payload, "payload bytes must round-trip exactly");
    let (mut scratch, mut decoded) = (Vec::new(), Vec::new());
    let appended = codec
        .decode_events(&block, payload.len(), &mut scratch, &mut decoded)
        .unwrap();
    assert_eq!(appended, events.len());
    assert_eq!(decoded.as_slice(), events);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_codec_round_trips_arbitrary_event_streams(events in ordered_events(300)) {
        for id in CodecId::ALL {
            let mut codec = id.new_codec();
            check_round_trip(codec.as_mut(), &events);
        }
    }

    #[test]
    fn every_codec_round_trips_periodic_streams(events in periodic_events(400)) {
        for id in CodecId::ALL {
            let mut codec = id.new_codec();
            check_round_trip(codec.as_mut(), &events);
        }
    }

    #[test]
    fn delta_varint_compresses_periodic_streams(events in periodic_events(400)) {
        let mut payload = Vec::new();
        BinaryEncoder::new().encode(&events, &mut payload).unwrap();
        let mut codec = CodecId::DeltaVarint.new_codec();
        let mut block = Vec::new();
        prop_assert!(
            codec.compress(&payload, &mut block).unwrap(),
            "structured periodic streams must always be compressible"
        );
    }

    #[test]
    fn delta_varint_instances_are_reusable_across_frames(
        first in ordered_events(120),
        second in periodic_events(160),
        third in ordered_events(40),
    ) {
        // One instance, many frames: pooled scratch state must never leak
        // between windows.
        let mut codec = CodecId::DeltaVarint.new_codec();
        for events in [&first, &second, &third, &first] {
            check_round_trip(codec.as_mut(), events);
        }
    }

    #[test]
    fn codecs_refuse_or_round_trip_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        // Non-ETRC payloads: DeltaVarint must refuse anything that is not
        // a canonical encoding; LzBlock refuses everything.
        let mut delta = CodecId::DeltaVarint.new_codec();
        let mut block = Vec::new();
        if delta.compress(&bytes, &mut block).unwrap() {
            // Only possible when `bytes` happens to be canonical ETRC.
            let decoded = BinaryDecoder::new().decode(&bytes).unwrap();
            let mut reencoded = Vec::new();
            BinaryEncoder::new().encode(&decoded, &mut reencoded).unwrap();
            prop_assert_eq!(&reencoded, &bytes);
            let mut restored = Vec::new();
            delta.decompress(&block, bytes.len(), &mut restored).unwrap();
            prop_assert_eq!(&restored, &bytes);
        } else {
            prop_assert!(block.is_empty());
        }

        let mut lz = CodecId::LzBlock.new_codec();
        let mut block = Vec::new();
        prop_assert!(!lz.compress(&bytes, &mut block).unwrap());
        prop_assert!(block.is_empty());
    }

    /// Whatever a CRC-valid frame claims: arbitrary block bytes — half of
    /// them opening with the varint of `u32::MAX`, an event count no block
    /// this short holds — under an arbitrary raw length, most often 0 or
    /// `u32::MAX`, decode to a value or a typed error under every codec. A
    /// decoder that reserved memory on such a claim alone aborts here.
    #[test]
    fn every_decoder_survives_any_block_and_raw_length(
        tail in prop::collection::vec(any::<u8>(), 0..64),
        huge_count in any::<bool>(),
        kind in 0u8..4,
        claimed in any::<u32>(),
    ) {
        let mut block = if huge_count { vec![0xFF, 0xFF, 0xFF, 0xFF, 0x0F] } else { Vec::new() };
        block.extend(tail);
        let raw_len = match kind {
            0 => 0,
            1 => u32::MAX,
            _ => claimed,
        } as usize;
        for id in CodecId::ALL {
            let mut codec = id.new_codec();
            let mut restored = Vec::new();
            if codec.decompress(&block, raw_len, &mut restored).is_ok() {
                prop_assert_eq!(restored.len(), raw_len);
            }
            let (mut scratch, mut events) = (Vec::new(), Vec::new());
            let _ = codec.decode_events(&block, raw_len, &mut scratch, &mut events);
        }
    }

    #[test]
    fn corrupt_blocks_error_instead_of_mis_decoding(
        events in periodic_events(200),
        flip in any::<u32>(),
    ) {
        let mut payload = Vec::new();
        BinaryEncoder::new().encode(&events, &mut payload).unwrap();
        let mut codec = CodecId::DeltaVarint.new_codec();
        let mut block = Vec::new();
        if codec.compress(&payload, &mut block).unwrap() {
            let mut corrupt = block.clone();
            let at = flip as usize % corrupt.len();
            corrupt[at] ^= 0x55;
            let mut restored = Vec::new();
            match codec.decompress(&corrupt, payload.len(), &mut restored) {
                // Either the corruption is detected...
                Err(_) => {}
                // ...or the flipped bit survives only if the result still
                // restores to *some* byte string of the right length; it
                // must never silently claim to be the original when the
                // decode structure broke. (CRC framing above this layer
                // catches the rest.)
                Ok(()) => prop_assert_eq!(restored.len(), payload.len()),
            }
        }
    }
}
