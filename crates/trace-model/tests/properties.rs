//! Property-based tests for the trace model: codecs round-trip and window
//! assembly partitions streams.

use proptest::prelude::*;
use std::time::Duration;

use trace_model::codec::{BinaryDecoder, BinaryEncoder, TraceDecoder, TraceEncoder};
use trace_model::{EventTypeId, Severity, Timestamp, TraceEvent, WindowAssembler};

/// Strategy producing a timestamp-ordered vector of arbitrary events.
fn ordered_events(max_len: usize) -> impl Strategy<Value = Vec<TraceEvent>> {
    prop::collection::vec(
        (0u64..5_000_000, 0u16..32, any::<u32>(), 0u8..4),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_codec_round_trips(events in ordered_events(300)) {
        let mut bytes = Vec::new();
        BinaryEncoder::new().encode(&events, &mut bytes).unwrap();
        let decoded = BinaryDecoder::new().decode(&bytes).unwrap();
        prop_assert_eq!(decoded, events);
    }

    #[test]
    fn count_windows_partition_the_stream(
        events in ordered_events(400),
        size in 1usize..50,
    ) {
        let windows: Vec<_> = WindowAssembler::for_count(size)
            .unwrap()
            .windows(events.clone())
            .collect();
        let reassembled: Vec<TraceEvent> =
            windows.iter().flat_map(|w| w.events.iter().copied()).collect();
        prop_assert_eq!(reassembled, events.clone());
        // All but the last window have exactly `size` events.
        if let Some((_last, init)) = windows.split_last() {
            prop_assert!(init.iter().all(|w| w.len() == size));
        }
        // Window ids are sequential.
        for (i, w) in windows.iter().enumerate() {
            prop_assert_eq!(w.id.index(), i as u64);
        }
    }

    #[test]
    fn time_windows_partition_the_stream(
        events in ordered_events(400),
        millis in 1u64..100,
    ) {
        let duration = Duration::from_millis(millis);
        let windows: Vec<_> = WindowAssembler::for_time(duration)
            .unwrap()
            .windows(events.clone())
            .collect();
        let reassembled: Vec<TraceEvent> =
            windows.iter().flat_map(|w| w.events.iter().copied()).collect();
        prop_assert_eq!(reassembled, events.clone());
        // Every event lies inside its window's [start, end) interval, and
        // windows are contiguous in time.
        for pair in windows.windows(2) {
            prop_assert_eq!(pair[0].end, pair[1].start);
        }
        for w in &windows {
            prop_assert_eq!(w.duration(), duration);
            for ev in &w.events {
                prop_assert!(ev.timestamp >= w.start);
                prop_assert!(ev.timestamp < w.end);
            }
        }
    }
}
