//! Replay equivalence for the durable segment store: a run recorded
//! through `endurance-store` — even after a simulated crash (drop without
//! close) — replays byte-for-byte identical to the same run recorded into
//! a `MemorySink`, single- and multi-lane, and windowed replay via the
//! index returns exactly the events of the requested windows.

use std::time::Duration;

use endurance_core::{FleetReducer, MonitorConfig, ReductionSession, WindowDecision};
use endurance_store::{LaneWriter, SpooledSink, StoreConfig, StoreReader};
use trace_model::{
    EventSink, EventTypeId, InterleavedStreams, MemorySource, StreamId, Timestamp, TraceError,
    TraceEvent,
};

/// A sink that keeps both the recorded events and the exact encoded bytes
/// handed down by the recorder — the in-memory ground truth the store is
/// compared against.
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

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("endurance-durable-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> MonitorConfig {
    MonitorConfig::builder()
        .dimensions(4)
        .k(8)
        .reference_duration(Duration::from_secs(2))
        .build()
        .expect("valid config")
}

/// A steady tick stream with a mid-run rate burst so some windows are
/// anomalous and the recorded trace is non-trivial.
fn source_events(tick_us: u64, phase: u64, seconds: u64) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    let end = Duration::from_secs(seconds).as_nanos() as u64;
    let tick = tick_us * 1_000;
    let burst_start = Duration::from_secs(3).as_nanos() as u64;
    let burst_end = burst_start + Duration::from_millis(400).as_nanos() as u64;
    let mut t = phase % tick;
    let mut i = 0u64;
    while t < end {
        events.push(TraceEvent::new(
            Timestamp::from_nanos(t),
            EventTypeId::new((i % 4) as u16),
            i as u32,
        ));
        let in_burst = t >= burst_start && t < burst_end;
        let step = if in_burst { tick / 5 } else { tick };
        t += step.max(1);
        i += 1;
    }
    events
}

#[test]
fn single_lane_store_replays_byte_for_byte_after_crash() {
    // Tick/phase chosen so the burst records a healthy handful of windows
    // (a tick dividing 40 ms exactly gives perfectly uniform pmfs and
    // records nothing).
    let events = source_events(300, 11_000, 6);

    // Ground truth: the same session into a memory sink.
    let mut memory_session = ReductionSession::new(config())
        .expect("session")
        .with_sink(EncodedSink::default())
        .with_observer(Vec::<WindowDecision>::new());
    memory_session.push_batch(&events).expect("push");
    let memory = memory_session.finish().expect("finish");

    // The run under test: recorded straight to a store lane, then
    // "crashed" — the writer is dropped without close, so no sidecar
    // index exists and reopen must recover from the segment files.
    let dir = temp_dir("single");
    let writer = LaneWriter::create(&dir, 0, StoreConfig::default()).expect("lane");
    let mut store_session = ReductionSession::new(config())
        .expect("session")
        .with_sink(writer)
        .with_observer(Vec::<WindowDecision>::new());
    store_session.push_batch(&events).expect("push");
    let stored = store_session.finish().expect("finish");
    assert_eq!(stored.report, memory.report);
    assert_eq!(stored.observer, memory.observer);
    drop(stored.sink); // crash: no close()

    let reader = StoreReader::open(&dir).expect("open");
    assert!(!reader.recovery().clean, "crash recovery ran");
    assert!(reader.recovery().torn_tails.is_empty());

    // Byte-for-byte equality with the in-memory run.
    assert!(!memory.sink.events.is_empty(), "the burst must record");
    assert_eq!(reader.lane_events(0).expect("events"), memory.sink.events);
    assert_eq!(
        reader.lane_payload_bytes(0).expect("bytes"),
        memory.sink.bytes
    );

    // The index carries the true window ids: exactly the recorded
    // decisions, in stream order.
    let recorded_ids: Vec<u64> = memory
        .observer
        .iter()
        .filter(|decision| decision.recorded())
        .map(|decision| decision.window_id.index())
        .collect();
    let index_ids: Vec<u64> = reader
        .lane_windows(0)
        .expect("lane 0")
        .iter()
        .map(|entry| entry.window_id)
        .collect();
    assert_eq!(index_ids, recorded_ids);

    // Windowed replay via the index returns exactly the events of the
    // requested windows.
    for decision in memory.observer.iter().filter(|d| d.recorded()) {
        let expected: Vec<TraceEvent> = events
            .iter()
            .filter(|ev| ev.timestamp >= decision.start && ev.timestamp < decision.end)
            .copied()
            .collect();
        let got = reader
            .window_events(0, decision.window_id)
            .expect("seek")
            .expect("indexed");
        assert_eq!(got, expected, "window {}", decision.window_id);
        let ranged = reader
            .windows_in_range(0, decision.start, decision.end)
            .expect("range");
        assert!(ranged
            .iter()
            .any(|(id, events)| *id == decision.window_id && events == &got));
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_lane_sharded_store_matches_serial_memory_runs() {
    let streams: Vec<Vec<TraceEvent>> = [(230u64, 21_000u64), (300, 11_000), (330, 37_000)]
        .iter()
        .map(|&(tick, phase)| source_events(tick, phase, 6))
        .collect();

    // Ground truth: one standalone session per source, memory sinks.
    let serial: Vec<EncodedSink> = streams
        .iter()
        .map(|events| {
            let mut session = ReductionSession::new(config())
                .expect("session")
                .with_sink(EncodedSink::default());
            session.push_batch(events).expect("push");
            session.finish().expect("finish").sink
        })
        .collect();

    // The run under test: a fleet reducer recording each stream through
    // a spooled store lane (monitoring overlaps disk writes), crashed
    // before any close.
    let dir = temp_dir("sharded");
    let store_dir = dir.clone();
    let mut reducer = FleetReducer::new(config(), streams.len())
        .expect("reducer")
        .with_sinks(move |stream: StreamId| {
            let lane = LaneWriter::create(&store_dir, stream.as_u32(), StoreConfig::default());
            SpooledSink::new(lane.expect("lane"))
        });
    let sources: Vec<MemorySource> = streams
        .iter()
        .map(|events| MemorySource::new(events.clone()).expect("ordered"))
        .collect();
    for (stream, event) in InterleavedStreams::new(sources) {
        reducer.push(stream, event).expect("push");
    }
    let outcome = reducer.finish().expect("finish");
    assert_eq!(outcome.failed_streams, 0);
    assert!(outcome.worker_panics.is_empty());
    for stream in outcome.streams {
        let (writer, error) = stream.sink.expect("sink").finish_parts();
        assert!(error.is_none());
        drop(writer); // crash: no close()
    }

    let reader = StoreReader::open(&dir).expect("open");
    assert!(!reader.recovery().clean);
    assert_eq!(reader.lane_ids(), vec![0, 1, 2]);
    for (lane, expected) in serial.iter().enumerate() {
        assert!(!expected.events.is_empty(), "lane {lane} must record");
        assert_eq!(
            reader.lane_events(lane as u32).expect("events"),
            expected.events,
            "lane {lane} events"
        );
        assert_eq!(
            reader.lane_payload_bytes(lane as u32).expect("bytes"),
            expected.bytes,
            "lane {lane} bytes"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_replay_feeds_a_fresh_session_as_an_event_source() {
    let events = source_events(300, 11_000, 6);
    let dir = temp_dir("resession");
    let writer = LaneWriter::create(&dir, 0, StoreConfig::default()).expect("lane");
    let mut session = ReductionSession::new(config())
        .expect("session")
        .with_sink(writer);
    session.push_batch(&events).expect("push");
    let outcome = session.finish().expect("finish");
    let recorded = outcome.report.recorder.events_recorded;
    outcome.sink.close().expect("close");

    // The reduced trace replays through the EventSource trait — here into
    // a plain collection, as a post-mortem analysis pass would.
    let reader = StoreReader::open(&dir).expect("open");
    assert!(reader.recovery().clean);
    let mut replay = reader.replay_lane(0).expect("replay");
    let mut drained = Vec::new();
    use trace_model::EventSource;
    let read = replay.fill(&mut drained, usize::MAX);
    assert!(replay.error().is_none());
    assert_eq!(read as u64, recorded);
    assert_eq!(drained, reader.lane_events(0).expect("events"));

    std::fs::remove_dir_all(&dir).ok();
}
