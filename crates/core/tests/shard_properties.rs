//! Shard/merge equivalence properties: a `FleetReducer` over an
//! interleaved multi-source stream must produce, per session id,
//! byte-for-byte the same recorded trace (and identical decisions and
//! report) as one `ReductionSession` fed the same sub-stream serially —
//! whether an id is one source or a shard of several — for any worker
//! count and batch size, and the consolidated report must be exactly the
//! sum of the per-session reports.

use proptest::prelude::*;
use std::time::Duration;

use endurance_core::{
    FleetOutcome, FleetReducer, MonitorConfig, ReductionReport, ReductionSession, WindowDecision,
};
use trace_model::{
    EventSink, EventTypeId, InterleavedStreams, MemorySource, StreamId, Timestamp, TraceError,
    TraceEvent,
};

/// A sink that keeps both the recorded events and the exact encoded bytes
/// handed down by the recorder, so equivalence can be asserted
/// byte-for-byte on what would land on storage.
#[derive(Debug, Default, Clone, PartialEq)]
struct EncodedSink {
    events: Vec<TraceEvent>,
    bytes: Vec<u8>,
}

impl EventSink for EncodedSink {
    fn record(&mut self, events: &[TraceEvent]) -> Result<(), TraceError> {
        self.events.extend_from_slice(events);
        Ok(())
    }

    fn record_encoded(&mut self, events: &[TraceEvent], encoded: &[u8]) -> Result<(), TraceError> {
        self.events.extend_from_slice(events);
        self.bytes.extend_from_slice(encoded);
        Ok(())
    }

    fn recorded_events(&self) -> usize {
        self.events.len()
    }
}

/// One synthetic source: a steady tick stream with a mid-run rate burst
/// (the burst makes some windows anomalous, so the recorded traces are
/// non-trivial).
fn source_events(
    tick_us: u64,
    types: u16,
    phase: u64,
    seconds: u64,
    burst_at_s: u64,
    burst_factor: u64,
) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    let end = Duration::from_secs(seconds).as_nanos() as u64;
    let tick = tick_us * 1_000;
    let burst_start = Duration::from_secs(burst_at_s).as_nanos() as u64;
    let burst_end = burst_start + Duration::from_millis(400).as_nanos() as u64;
    let mut t = phase % tick;
    let mut i = 0u64;
    while t < end {
        events.push(TraceEvent::new(
            Timestamp::from_nanos(t),
            EventTypeId::new((i % u64::from(types)) as u16),
            i as u32,
        ));
        let in_burst = t >= burst_start && t < burst_end;
        let step = if in_burst { tick / burst_factor } else { tick };
        t += step.max(1);
        i += 1;
    }
    events
}

fn config() -> MonitorConfig {
    MonitorConfig::builder()
        .dimensions(4)
        .k(8)
        .reference_duration(Duration::from_secs(2))
        .build()
        .expect("valid config")
}

/// Runs one standalone session per sub-stream, serially.
fn serial_baseline(
    streams: &[Vec<TraceEvent>],
) -> Vec<(ReductionReport, Vec<WindowDecision>, EncodedSink)> {
    streams
        .iter()
        .map(|events| {
            let mut session = ReductionSession::new(config())
                .expect("session")
                .with_sink(EncodedSink::default())
                .with_observer(Vec::new());
            session.push_batch(events).expect("push");
            let outcome = session.finish().expect("finish");
            (outcome.report, outcome.observer, outcome.sink)
        })
        .collect()
}

/// The sources interleaved into one tagged, timestamp-ordered feed.
fn interleaved(streams: &[Vec<TraceEvent>]) -> Vec<(StreamId, TraceEvent)> {
    let sources: Vec<MemorySource> = streams
        .iter()
        .map(|events| MemorySource::new(events.clone()).expect("ordered"))
        .collect();
    InterleavedStreams::new(sources).collect()
}

/// Reduces a tagged feed through one engine, pushing every event under
/// the session id `session_of` gives its source.
fn fleet_run(
    tagged: &[(StreamId, TraceEvent)],
    workers: usize,
    batch_size: usize,
    session_of: impl Fn(StreamId) -> StreamId,
) -> FleetOutcome<EncodedSink, Vec<WindowDecision>> {
    let mut fleet = FleetReducer::new(config(), workers)
        .expect("fleet")
        .with_batch_size(batch_size)
        .with_sinks(|_| EncodedSink::default())
        .with_observers(|_| Vec::<WindowDecision>::new());
    for (source, event) in tagged {
        fleet.push(session_of(*source), *event).expect("push");
    }
    let outcome = fleet.finish().expect("finish");
    assert_eq!(outcome.events_routed, tagged.len() as u64);
    assert_eq!(outcome.failed_streams, 0);
    assert!(outcome.worker_panics.is_empty());
    outcome
}

/// Per session, in id order: identical report, decisions, recorded events
/// and recorded *bytes*; and the aggregate is exactly the serial sum.
fn assert_matches_serial(
    outcome: &FleetOutcome<EncodedSink, Vec<WindowDecision>>,
    serial: &[(ReductionReport, Vec<WindowDecision>, EncodedSink)],
) {
    assert_eq!(outcome.streams.len(), serial.len());
    let mut expected_aggregate = ReductionReport::empty(config().alpha);
    for (id, (stream, (report, decisions, sink))) in outcome.streams.iter().zip(serial).enumerate()
    {
        assert_eq!(stream.stream, StreamId::new(id as u32));
        assert_eq!(stream.report.as_ref(), Some(report));
        assert_eq!(stream.observer.as_ref(), Some(decisions));
        assert_eq!(stream.sink.as_ref(), Some(sink));
        expected_aggregate.merge(report);
    }
    assert_eq!(&outcome.aggregate, &expected_aggregate);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn fleet_recorded_traces_match_serial_per_source_sessions(
        ticks in prop::collection::vec(150u64..450, 2..5),
        burst_at in 3u64..5,
        burst_factor in 3u64..6,
        workers in 1usize..5,
        batch_size in 1usize..2048,
    ) {
        // Per-source streams with distinct rates and phases, one session
        // id per source, on a worker count drawn independently of the
        // source count.
        let streams: Vec<Vec<TraceEvent>> = ticks
            .iter()
            .enumerate()
            .map(|(i, tick)| {
                source_events(*tick, 4, i as u64 * 37_000, 6, burst_at, burst_factor)
            })
            .collect();
        let serial = serial_baseline(&streams);
        let outcome = fleet_run(&interleaved(&streams), workers, batch_size, |source| source);
        assert_matches_serial(&outcome, &serial);
    }

    #[test]
    fn extra_workers_stay_idle_without_perturbing_the_busy_ones(
        tick in 150u64..400,
        extra in 1usize..4,
    ) {
        // Two sources over (2 + extra) workers: only the two sessions
        // exist, and their equivalence is unaffected by the idle workers.
        let streams = vec![
            source_events(tick, 4, 0, 5, 3, 4),
            source_events(tick + 60, 4, 21_000, 5, 3, 4),
        ];
        let serial = serial_baseline(&streams);
        let outcome = fleet_run(&interleaved(&streams), 2 + extra, 4096, |source| source);
        prop_assert_eq!(outcome.workers, 2 + extra);
        assert_matches_serial(&outcome, &serial);
    }

    #[test]
    fn sources_under_one_id_match_a_serial_session_over_the_merged_substream(
        ticks in prop::collection::vec(150u64..450, 4usize),
        workers in 1usize..5,
        batch_size in 1usize..2048,
    ) {
        // The two-shard shape: four sources pushed under `source % 2`, so
        // each session reduces the interleaving of two sources.
        let streams: Vec<Vec<TraceEvent>> = ticks
            .iter()
            .enumerate()
            .map(|(i, tick)| source_events(*tick, 4, i as u64 * 37_000, 6, 3, 4))
            .collect();
        let tagged = interleaved(&streams);
        let merged: Vec<Vec<TraceEvent>> = (0..2)
            .map(|shard| {
                tagged
                    .iter()
                    .filter(|(source, _)| source.index() % 2 == shard)
                    .map(|(_, event)| *event)
                    .collect()
            })
            .collect();
        let serial = serial_baseline(&merged);
        let outcome = fleet_run(&tagged, workers, batch_size, |source| {
            StreamId::new(source.as_u32() % 2)
        });
        assert_matches_serial(&outcome, &serial);
    }
}

#[test]
fn sources_with_anomalies_record_something() {
    // Sanity guard: the synthetic burst actually produces recorded
    // windows, so the byte-for-byte comparison above is not vacuous.
    let streams = vec![
        source_events(200, 4, 0, 6, 3, 5),
        source_events(300, 4, 11_000, 6, 4, 5),
    ];
    let serial = serial_baseline(&streams);
    let recorded: usize = serial.iter().map(|(_, _, sink)| sink.events.len()).sum();
    assert!(
        recorded > 0,
        "burst streams must record at least one anomalous window"
    );
}
