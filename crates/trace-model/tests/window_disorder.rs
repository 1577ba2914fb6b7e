//! Property tests for [`WindowAssembler`] under hostile input: reordered,
//! duplicated and timestamp-regressing event sequences, as produced by a
//! churning device fleet (`docs/SCENARIOS.md` §6).
//!
//! The tolerance contract under test (documented on
//! [`WindowAssembler::push`]):
//!
//! * the assembler never panics or errors on disordered input;
//! * every pushed event lands in exactly one emitted window (counts are
//!   preserved, duplicates included);
//! * window assignment is a deterministic function of the arrival
//!   sequence — replaying the same sequence yields identical windows;
//! * emitted window contents are sorted by timestamp (stably, so
//!   duplicates keep arrival order) regardless of arrival order;
//! * the end of time is a timestamp like any other: a window whose end
//!   would pass `Timestamp::MAX` ends there and holds the events at it;
//! * pulling windows through `WindowAssembler::windows` yields exactly
//!   what pushing the events and finishing emits.

use proptest::prelude::*;
use std::time::Duration;

use trace_model::window::WindowAssembler;
use trace_model::{EventTypeId, Severity, Timestamp, TraceEvent};

/// Strategy producing an *arbitrarily ordered* event sequence: timestamps
/// are unconstrained (so the stream reorders and regresses freely) and
/// each generated event is repeated 1–3 times back to back (so exact
/// duplicates occur). A sequence lies either in the first 50 ms of trace
/// time or in the last 100 ms before `u64::MAX` ns — two of the longest
/// windows the tests cut — so the slot that would end past the end of
/// time is exercised too; a quarter of those sit at `u64::MAX` itself.
fn disordered_events(max_len: usize) -> impl Strategy<Value = Vec<TraceEvent>> {
    (
        any::<bool>(),
        prop::collection::vec(
            (0u64..50_000_000, 0u16..32, any::<u32>(), 0u8..4, 1usize..4),
            0..max_len,
        ),
    )
        .prop_map(|(at_the_end, raw)| {
            raw.into_iter()
                .flat_map(move |(ts, ty, payload, sev, repeat)| {
                    let nanos = match (at_the_end, payload % 4) {
                        (false, _) => ts,
                        (true, 0) => u64::MAX,
                        (true, _) => u64::MAX - 2 * ts,
                    };
                    let event = TraceEvent::new(
                        Timestamp::from_nanos(nanos),
                        EventTypeId::new(ty),
                        payload,
                    )
                    .with_severity(Severity::from_u8(sev).expect("severity in range"));
                    std::iter::repeat(event).take(repeat)
                })
                .collect()
        })
}

/// Drives `events` through an assembler, collecting every emitted window
/// (including the trailing partial one). The emit closure is infallible;
/// the contract says disordered input alone never produces an error.
fn assemble(mut assembler: WindowAssembler, events: &[TraceEvent]) -> Vec<trace_model::Window> {
    let mut windows = Vec::new();
    for &event in events {
        assembler
            .push(event, &mut |w| {
                windows.push(w);
                Ok::<(), std::convert::Infallible>(())
            })
            .expect("infallible emit");
    }
    windows.extend(assembler.finish());
    windows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn count_windows_preserve_disordered_events(
        events in disordered_events(200),
        size in 1usize..40,
    ) {
        let windows = assemble(WindowAssembler::for_count(size).unwrap(), &events);

        // Count preservation: nothing lost, duplicates included.
        let total: usize = windows.iter().map(|w| w.len()).sum();
        prop_assert_eq!(total, events.len());

        // Multiset preservation: sorting the arrival sequence must equal
        // the concatenated (already sorted) window contents... per window.
        for (i, w) in windows.iter().enumerate() {
            prop_assert_eq!(w.id.index(), i as u64);
            prop_assert!(w.events.windows(2).all(|p| p[0].timestamp <= p[1].timestamp));
            prop_assert!(w.events.iter().all(|ev| ev.timestamp >= w.start));
            // The end is exclusive, except that a window ending at the
            // end of time holds the events at it.
            prop_assert!(w
                .events
                .iter()
                .all(|ev| ev.timestamp < w.end || w.end == Timestamp::MAX));
        }
        // All but the trailing window hold exactly `size` events: window
        // *assignment* follows arrival order, not timestamp order.
        if let Some((_last, init)) = windows.split_last() {
            prop_assert!(init.iter().all(|w| w.len() == size));
        }
    }

    #[test]
    fn time_windows_preserve_disordered_events(
        events in disordered_events(200),
        millis in 1u64..50,
    ) {
        let assembler = WindowAssembler::for_time(Duration::from_millis(millis)).unwrap();
        let windows = assemble(assembler, &events);

        let total: usize = windows.iter().map(|w| w.len()).sum();
        prop_assert_eq!(total, events.len());

        for (i, w) in windows.iter().enumerate() {
            prop_assert_eq!(w.id.index(), i as u64);
            // Contents sorted even when arrivals were not.
            prop_assert!(w.events.windows(2).all(|p| p[0].timestamp <= p[1].timestamp));
        }
        // Time windows stay contiguous: disorder never tears the timeline.
        for pair in windows.windows(2) {
            prop_assert_eq!(pair[0].end, pair[1].start);
        }
    }

    #[test]
    fn assignment_is_deterministic(
        events in disordered_events(150),
        size in 1usize..30,
    ) {
        // Same arrival sequence, two fresh assemblers: byte-identical
        // windows (ids, bounds and contents).
        let first = assemble(WindowAssembler::for_count(size).unwrap(), &events);
        let second = assemble(WindowAssembler::for_count(size).unwrap(), &events);
        prop_assert_eq!(first, second);

        let duration = Duration::from_millis(7);
        let first = assemble(WindowAssembler::for_time(duration).unwrap(), &events);
        let second = assemble(WindowAssembler::for_time(duration).unwrap(), &events);
        prop_assert_eq!(first, second);
    }

    #[test]
    fn pulling_windows_is_pushing_and_finishing(
        events in disordered_events(200),
        size in 1usize..40,
        millis in 1u64..50,
    ) {
        let assemblers = [
            WindowAssembler::for_count(size).unwrap(),
            WindowAssembler::for_time(Duration::from_millis(millis)).unwrap(),
        ];
        for assembler in assemblers {
            let pulled: Vec<_> = assembler.clone().windows(events.clone()).collect();
            prop_assert_eq!(pulled, assemble(assembler, &events));
        }
    }

    #[test]
    fn duplicates_survive_and_stay_adjacent(
        ts in 0u64..1_000_000,
        payloads in prop::collection::vec(any::<u32>(), 2..20),
    ) {
        // All events share one timestamp but carry distinct payload tags:
        // the stable sort must keep them in arrival order.
        let events: Vec<TraceEvent> = payloads
            .iter()
            .map(|&p| TraceEvent::new(Timestamp::from_nanos(ts), EventTypeId::new(1), p))
            .collect();
        let windows = assemble(WindowAssembler::for_count(events.len()).unwrap(), &events);
        prop_assert_eq!(windows.len(), 1);
        prop_assert_eq!(windows[0].events.clone(), events);
    }
}
