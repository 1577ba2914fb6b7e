//! Replay equivalence for the durable segment store: a run recorded
//! through `endurance-store` — even after a simulated crash (drop without
//! close) — replays byte-for-byte identical to the same run recorded into
//! a `MemorySink`, single- and multi-lane, and windowed replay via the
//! index returns exactly the events of the requested windows.

use std::time::Duration;

use endurance_core::{
    CoreError, FleetOutcome, FleetReducer, MonitorConfig, ReductionSession, WindowDecision,
};
use endurance_repro::extract_window;
use endurance_store::{LaneWriter, Snapshot, StoreConfig, StoreReader, StoreWriter};
use trace_model::codec::{BinaryEncoder, TraceEncoder};
use trace_model::{
    EventSink, EventTypeId, InterleavedStreams, MemorySource, RecordMeta, StreamId, Timestamp,
    TraceError, TraceEvent, WindowId,
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

/// Three devices' streams and, as ground truth, what one standalone
/// session per stream records into memory.
fn fleet_streams() -> (Vec<Vec<TraceEvent>>, Vec<EncodedSink>) {
    let streams: Vec<Vec<TraceEvent>> = [(230u64, 21_000u64), (300, 11_000), (330, 37_000)]
        .iter()
        .map(|&(tick, phase)| source_events(tick, phase, 6))
        .collect();
    let serial = streams
        .iter()
        .map(|events| {
            let mut session = ReductionSession::new(config())
                .expect("session")
                .with_sink(EncodedSink::default());
            session.push_batch(events).expect("push");
            session.finish().expect("finish").sink
        })
        .collect();
    (streams, serial)
}

/// `streams` interleaved through a fleet reducer, stream `i` recording
/// into `lane(i)` on its worker.
fn reduce_fleet(
    streams: &[Vec<TraceEvent>],
    lane: impl Fn(u32) -> LaneWriter + Send + Sync + 'static,
) -> FleetOutcome<LaneWriter> {
    let mut reducer = FleetReducer::new(config(), streams.len())
        .expect("reducer")
        .with_sinks(move |stream: StreamId| lane(stream.as_u32()));
    let sources: Vec<MemorySource> = streams
        .iter()
        .map(|events| MemorySource::new(events.clone()).expect("ordered"))
        .collect();
    for (stream, event) in InterleavedStreams::new(sources) {
        reducer.push(stream, event).expect("push");
    }
    let outcome = reducer.finish().expect("finish");
    assert!(outcome.worker_panics.is_empty());
    outcome
}

/// Lane `lane` of `reader` holds exactly what `expected` recorded.
fn assert_lane_matches(reader: &StoreReader, lane: usize, expected: &EncodedSink) {
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

#[test]
fn multi_lane_sharded_store_matches_serial_memory_runs() {
    let (streams, serial) = fleet_streams();

    // The run under test: a fleet reducer recording each stream through
    // a store lane on the stream's worker, crashed before any close.
    let dir = temp_dir("sharded");
    let store_dir = dir.clone();
    let outcome = reduce_fleet(&streams, move |lane| {
        LaneWriter::create(&store_dir, lane, StoreConfig::default()).expect("lane")
    });
    assert_eq!(outcome.failed_streams, 0);
    drop(outcome.streams); // crash: no close()

    let reader = StoreReader::open(&dir).expect("open");
    assert!(!reader.recovery().clean);
    assert_eq!(reader.lane_ids(), vec![0, 1, 2]);
    for (lane, expected) in serial.iter().enumerate() {
        assert_lane_matches(&reader, lane, expected);
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_refused_append_is_the_writers_own_error_and_stays_in_its_lane() {
    // Lane 1's segment 0 is made behind an open `StoreWriter`, which
    // docs/FORMAT.md §1 forbids: the handle's writer for lane 1 starts
    // at segment 0 without looking and its first append is refused.
    let open_with_outsider = |tag: &str| {
        let dir = temp_dir(tag);
        let store = StoreWriter::open(&dir).expect("open");
        let mut outsider = LaneWriter::create(&dir, 1, StoreConfig::default()).expect("outsider");
        let event = TraceEvent::new(Timestamp::from_micros(1), EventTypeId::new(0), 0);
        outsider.record(&[event]).expect("record");
        (dir, store, vec![event])
    };
    let (streams, serial) = fleet_streams();

    // One session: the writer's typed error reaches the caller, and the
    // writer is poisoned — no sidecar goes over what it never wrote.
    let (dir, store, _) = open_with_outsider("refused-session");
    let mut session = ReductionSession::new(config())
        .expect("session")
        .with_sink(store.lane(1, StoreConfig::default()).expect("lane"));
    let error = session.push_batch(&streams[1]).expect_err("refused");
    assert!(
        matches!(&error, CoreError::Trace(TraceError::Io(io))
            if io.kind() == std::io::ErrorKind::AlreadyExists),
        "{error:?}"
    );
    let (mut writer, _) = session.abort();
    assert!(writer.sync().is_err() && writer.close().is_err());
    std::fs::remove_dir_all(&dir).ok();

    // Under the fleet engine the refusal fails stream 1 alone, by name;
    // its neighbours' lanes close, reopen clean and replay byte for byte.
    let (dir, store, outsider_events) = open_with_outsider("refused-fleet");
    let outcome = reduce_fleet(&streams, move |lane| {
        store.lane(lane, StoreConfig::default()).expect("lane")
    });
    assert_eq!(outcome.failed_streams, 1);
    for stream in outcome.streams {
        let closed = stream
            .sink
            .expect("a failed stream hands back its sink")
            .close();
        let error = stream.error.unwrap_or_default();
        if stream.stream.index() == 1 {
            assert!(error.contains("lane0001-000000.seg"), "{error}");
            assert!(closed.is_err());
        } else {
            assert!(error.is_empty() && closed.is_ok(), "{error} {closed:?}");
        }
    }
    let reader = StoreReader::open(&dir).expect("open");
    assert_lane_matches(&reader, 0, &serial[0]);
    assert_lane_matches(&reader, 2, &serial[2]);
    assert_eq!(reader.lane_events(1).expect("outsider's"), outsider_events);
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

#[test]
fn a_window_id_recorded_twice_reads_back_as_the_latest_everywhere() {
    // Six windows one session recorded, and the model it scored them
    // against.
    let events = source_events(300, 11_000, 6);
    let mut session = ReductionSession::new(config())
        .expect("session")
        .with_observer(Vec::<WindowDecision>::new());
    session.push_batch(&events).expect("push");
    let model = session.model().expect("monitoring").clone();
    let decisions = session.finish().expect("finish").observer;
    let recorded: Vec<&WindowDecision> = decisions.iter().filter(|d| d.recorded()).collect();
    assert!(recorded.len() >= 6, "{} recorded", recorded.len());

    // A resumed lane recording a second session restarts its ids
    // (docs/FORMAT.md §4): 0, 1, 2, crash, then 1, 2, 3.
    let dir = temp_dir("twice");
    let mut written = Vec::new();
    for (run, ids) in [[0u64, 1, 2], [1, 2, 3]].iter().enumerate() {
        let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).expect("lane");
        for (decision, &id) in recorded[run * 3..].iter().zip(ids) {
            let window: Vec<TraceEvent> = events
                .iter()
                .filter(|ev| ev.timestamp >= decision.start && ev.timestamp < decision.end)
                .copied()
                .collect();
            let mut payload = Vec::new();
            BinaryEncoder::new()
                .encode(&window, &mut payload)
                .expect("encode");
            let meta = RecordMeta {
                window_id: WindowId::new(id),
                start: decision.start,
                end: decision.end,
            };
            writer
                .record_window(&meta, &window, &payload)
                .expect("record");
            written.push((window, payload));
        }
        drop(writer); // crash: the next run resumes the lane
    }

    // Every by-id surface answers `1` with the second run's window, the
    // fourth written — `extract_window` with the first `1` in its context
    // — through both lookups: a reader scanning back from the end, the
    // same reader once its own `snapshot()` built the id maps, that
    // snapshot, and one opened on its own.
    let id = WindowId::new(1);
    let latest = recorded[3].start.as_nanos();
    let check = |reader: &StoreReader| {
        let entry = reader.window_entry(0, id).expect("entry");
        assert_eq!(entry.map(|entry| entry.start_ns), Some(latest));
        let payload = reader.window_payload(0, id).expect("payload");
        assert_eq!(payload.as_ref(), Some(&written[3].1));
        let decoded = reader.window_events(0, id).expect("events");
        assert_eq!(decoded.as_ref(), Some(&written[3].0));
        let artifact =
            extract_window(reader, 0, id, 2, &config(), &model, "twice").expect("extract");
        assert_eq!(artifact.target_start_ns, latest);
        assert_eq!(artifact.windows.len(), 5);
    };
    let reader = StoreReader::open(&dir).expect("open");
    check(&reader);
    let snapshot = reader.snapshot();
    check(&reader);
    check(&snapshot);
    check(&Snapshot::open(&dir).expect("snapshot"));

    std::fs::remove_dir_all(&dir).ok();
}

/// A context wider than the lane takes the whole lane: the upper end of
/// the window range saturates instead of overflowing (a debug build
/// panicked; a release build wrapped, dropped the target and answered
/// `NoSuchWindow`).
#[test]
fn a_context_wider_than_the_lane_extracts_the_whole_lane() {
    let events = source_events(300, 11_000, 6);
    let dir = temp_dir("wide");
    let writer = LaneWriter::create(&dir, 0, StoreConfig::default()).expect("lane");
    let mut session = ReductionSession::new(config())
        .expect("session")
        .with_sink(writer);
    session.push_batch(&events).expect("push");
    let model = session.model().expect("monitoring").clone();
    session
        .finish()
        .expect("finish")
        .sink
        .close()
        .expect("close");

    let reader = StoreReader::open(&dir).expect("open");
    let windows = reader.lane_windows(0).expect("windows");
    assert!(windows.len() >= 3, "{} recorded", windows.len());
    let target = WindowId::new(windows[windows.len() / 2].window_id);
    let around = reader
        .windows_around(0, target, usize::MAX)
        .expect("around");
    let entries: Vec<_> = around.iter().map(|(entry, _)| *entry).collect();
    assert_eq!(entries, windows);
    let artifact =
        extract_window(&reader, 0, target, usize::MAX, &config(), &model, "wide").expect("extract");
    assert_eq!(artifact.windows.len(), windows.len());
    std::fs::remove_dir_all(&dir).ok();
}
