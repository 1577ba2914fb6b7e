//! Property-based tests for the trace model: codecs round-trip, windowers
//! partition streams, statistics are consistent.

use proptest::prelude::*;
use std::time::Duration;

use trace_model::codec::{BinaryDecoder, BinaryEncoder, TraceDecoder, TraceEncoder};
use trace_model::window::{CountWindower, TimeWindower, Windower};
use trace_model::{EventTypeId, Severity, Timestamp, TraceEvent, TraceStats};

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
        let windows: Vec<_> = CountWindower::new(size)
            .unwrap()
            .windows(events.clone().into_iter())
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
        let windows: Vec<_> = TimeWindower::new(duration)
            .unwrap()
            .windows(events.clone().into_iter())
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

    #[test]
    fn stats_totals_match_event_count(events in ordered_events(300)) {
        let stats = TraceStats::from_events(&events);
        prop_assert_eq!(stats.total_events(), events.len() as u64);
        let per_type_sum: u64 = stats.type_histogram().map(|(_, c)| c).sum();
        prop_assert_eq!(per_type_sum, events.len() as u64);
        let per_sev_sum: u64 = Severity::ALL
            .iter()
            .map(|s| stats.events_at_severity(*s))
            .sum();
        prop_assert_eq!(per_sev_sum, events.len() as u64);
    }

    #[test]
    fn stats_merge_is_equivalent_to_concatenation(
        first in ordered_events(150),
        second in ordered_events(150),
    ) {
        // Shift the second batch after the first so concatenation stays ordered.
        let offset = first.last().map(|ev| ev.timestamp.as_nanos() + 1).unwrap_or(0);
        let second: Vec<TraceEvent> = second
            .into_iter()
            .map(|ev| TraceEvent {
                timestamp: Timestamp::from_nanos(ev.timestamp.as_nanos() + offset),
                ..ev
            })
            .collect();
        let mut merged = TraceStats::from_events(&first);
        merged.merge(&TraceStats::from_events(&second));
        let concatenated: Vec<TraceEvent> =
            first.iter().copied().chain(second.iter().copied()).collect();
        prop_assert_eq!(merged, TraceStats::from_events(&concatenated));
    }
}
