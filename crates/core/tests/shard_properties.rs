//! Shard/merge equivalence properties: a `FleetReducer` over an
//! interleaved multi-source stream must produce, per session id,
//! byte-for-byte the same recorded trace (and identical decisions and
//! report) as one `ReductionSession` fed the same sub-stream serially —
//! whether an id is one source or a shard of several — for any worker
//! count and batch size, and the consolidated report must be exactly the
//! sum of the per-session reports. Stream closes ride in the same
//! batches as events, so a random schedule of pushes, closes, double
//! closes, closes of unknown ids and reopen-after-close must hand back
//! exactly the sessions a serial model of that schedule builds.

use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

use endurance_core::{
    FleetOutcome, FleetReducer, MonitorConfig, ReductionReport, ReductionSession, ReferenceModel,
    StreamOutcome, WindowDecision,
};
use trace_model::{
    EventSink, EventTypeId, InterleavedStreams, MemorySource, StreamId, Timestamp, TraceError,
    TraceEvent,
};

/// A sink that keeps both the recorded events and the exact encoded bytes
/// handed down by the recorder, so equivalence can be asserted
/// byte-for-byte on what would land on storage. With `records_left` set
/// it refuses every record after that many, failing its session.
#[derive(Debug, Default, Clone, PartialEq)]
struct EncodedSink {
    events: Vec<TraceEvent>,
    bytes: Vec<u8>,
    records_left: Option<usize>,
}

impl EncodedSink {
    fn failing_after(records: usize) -> Self {
        EncodedSink {
            records_left: Some(records),
            ..EncodedSink::default()
        }
    }

    fn take_record(&mut self) -> Result<(), TraceError> {
        match &mut self.records_left {
            Some(0) => Err(TraceError::InvalidWindowConfig("sink full".into())),
            Some(left) => {
                *left -= 1;
                Ok(())
            }
            None => Ok(()),
        }
    }
}

impl EventSink for EncodedSink {
    fn record(&mut self, events: &[TraceEvent]) -> Result<(), TraceError> {
        self.take_record()?;
        self.events.extend_from_slice(events);
        Ok(())
    }

    fn record_encoded(&mut self, events: &[TraceEvent], encoded: &[u8]) -> Result<(), TraceError> {
        self.take_record()?;
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

/// One step of a fleet schedule. Ids `0..SCHEDULE_STREAMS` carry events;
/// a close may name any id below `SCHEDULE_IDS`, so the ids above the
/// pushed ones are always unknown to the fleet.
#[derive(Debug, Clone, Copy)]
enum Step {
    Push { stream: u32, events: usize },
    Close { stream: u32 },
}

const SCHEDULE_STREAMS: u32 = 6;
const SCHEDULE_IDS: u32 = 8;
/// The id whose sink refuses its second record, so its session fails
/// mid-stream (or at its close) and later closes of it are no-ops.
const FAILING_STREAM: u32 = 5;

/// Three pushes to one close. A push is a few events (so short runs of
/// two ids interleave inside one batch), a few hundred, or a long run of
/// one id that can span whole batches of any size.
fn step() -> impl Strategy<Value = Step> {
    (0u8..4, 0..SCHEDULE_IDS, 0usize..60_000).prop_map(|(kind, stream, n)| {
        let events = match kind {
            0 => return Step::Close { stream },
            1 => 1 + n % 3,
            2 => 1 + n % 600,
            _ => n.max(5_000),
        };
        Step::Push {
            stream: stream % SCHEDULE_STREAMS,
            events,
        }
    })
}

/// Three in four batch sizes up to 64, so batches cut runs, and one in
/// four up to 65 536, so a batch holds many runs of every length.
fn schedule_batch_size() -> impl Strategy<Value = usize> {
    (0u8..4, 0usize..65_536).prop_map(|(kind, n)| match kind {
        0 => 1 + n,
        _ => 1 + n % 64,
    })
}

fn schedule_sink(stream: StreamId) -> EncodedSink {
    if stream.as_u32() == FAILING_STREAM {
        EncodedSink::failing_after(1)
    } else {
        EncodedSink::default()
    }
}

/// The shared model every scheduled session is scored against, learned
/// once from a clean source, so a session of any length is well formed.
fn schedule_model() -> &'static ReferenceModel {
    static MODEL: OnceLock<ReferenceModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut learner = ReductionSession::new(config()).expect("session");
        learner
            .push_batch(&source_events(250, 4, 0, 3, 60, 1))
            .expect("push");
        learner.model().expect("learned").clone()
    })
}

type ScheduleSession = ReductionSession<EncodedSink, Vec<WindowDecision>>;
type ScheduleOutcome = StreamOutcome<EncodedSink, Vec<WindowDecision>>;

fn schedule_session(stream: StreamId) -> ScheduleSession {
    ReductionSession::from_model(schedule_model().clone())
        .expect("session")
        .with_sink(schedule_sink(stream))
        .with_observer(Vec::new())
}

/// The serial model of a schedule: every stream's sessions run one after
/// another on standalone `ReductionSession`s, with the fleet's rules — a
/// session starts at a stream's first push after a close, a close ends
/// it, a failed stream discards everything later (closes included), and
/// the sessions still open are finalised at the end. Outcomes come back
/// sorted by stream id, each stream's sessions in order.
fn serial_schedule(sources: &[Vec<TraceEvent>], steps: &[Step]) -> (Vec<ScheduleOutcome>, u64) {
    let finalise = |stream: StreamId, events: u64, session: ReductionSession<_, _>| {
        let (report, error, sink, observer) = match session.finish() {
            Ok(done) => (
                Some(done.report),
                None,
                Some(done.sink),
                Some(done.observer),
            ),
            Err(err) => (None, Some(err.to_string()), None, None),
        };
        StreamOutcome {
            stream,
            events,
            discarded: 0,
            report,
            error,
            sink,
            observer,
        }
    };
    let mut cursors = vec![0usize; sources.len()];
    let mut live: Vec<Option<(ScheduleSession, u64)>> = (0..sources.len()).map(|_| None).collect();
    let mut failed: Vec<Option<ScheduleOutcome>> = (0..sources.len()).map(|_| None).collect();
    let mut done: Vec<ScheduleOutcome> = Vec::new();
    let mut pushed = 0u64;
    for step in steps {
        match *step {
            Step::Push { stream, events } => {
                let index = stream as usize;
                let id = StreamId::new(stream);
                let from = cursors[index];
                let to = (from + events).min(sources[index].len());
                cursors[index] = to;
                for event in &sources[index][from..to] {
                    pushed += 1;
                    if let Some(outcome) = &mut failed[index] {
                        outcome.discarded += 1;
                        continue;
                    }
                    let (session, count) =
                        live[index].get_or_insert_with(|| (schedule_session(id), 0));
                    *count += 1;
                    if let Err(err) = session.push(*event) {
                        let (session, count) = live[index].take().expect("live");
                        let (sink, observer) = session.abort();
                        failed[index] = Some(StreamOutcome {
                            stream: id,
                            events: count,
                            discarded: 0,
                            report: None,
                            error: Some(err.to_string()),
                            sink: Some(sink),
                            observer: Some(observer),
                        });
                    }
                }
            }
            Step::Close { stream } => {
                let index = stream as usize;
                if let Some((session, count)) = live.get_mut(index).and_then(Option::take) {
                    done.push(finalise(StreamId::new(stream), count, session));
                }
            }
        }
    }
    for (index, session) in live.into_iter().enumerate() {
        if let Some((session, count)) = session {
            done.push(finalise(StreamId::new(index as u32), count, session));
        }
    }
    done.extend(failed.into_iter().flatten());
    // The worker appends a failed stream's outcome when it fails, before
    // any later session of another stream; per stream the order is the
    // order sessions ended, which a stable sort keeps.
    done.sort_by_key(|outcome| outcome.stream.as_u32());
    (done, pushed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn closes_in_any_schedule_end_the_sessions_a_serial_model_ends(
        steps in prop::collection::vec(step(), 1..48),
        ticks in prop::collection::vec(150u64..450, SCHEDULE_STREAMS as usize),
        workers in 1usize..4,
        batch_size in schedule_batch_size(),
    ) {
        let sources: Vec<Vec<TraceEvent>> = ticks
            .iter()
            .enumerate()
            .map(|(i, tick)| source_events(*tick, 4, i as u64 * 37_000, 8, 1 + i as u64 % 3, 4))
            .collect();
        let (expected, pushed) = serial_schedule(&sources, &steps);

        let mut fleet = FleetReducer::from_model(schedule_model().clone(), workers)
            .expect("fleet")
            .with_batch_size(batch_size)
            .with_sinks(schedule_sink)
            .with_observers(|_| Vec::<WindowDecision>::new());
        let mut cursors = vec![0usize; sources.len()];
        for step in &steps {
            match *step {
                Step::Push { stream, events } => {
                    let index = stream as usize;
                    let from = cursors[index];
                    let to = (from + events).min(sources[index].len());
                    cursors[index] = to;
                    for event in &sources[index][from..to] {
                        fleet.push(StreamId::new(stream), *event).expect("push");
                    }
                }
                Step::Close { stream } => fleet.close_stream(StreamId::new(stream)).expect("close"),
            }
        }
        let outcome = fleet.finish().expect("finish");

        prop_assert!(outcome.worker_panics.is_empty());
        prop_assert_eq!(outcome.events_routed, pushed);
        prop_assert_eq!(outcome.streams.len(), expected.len());
        for (got, want) in outcome.streams.iter().zip(&expected) {
            prop_assert_eq!(got.stream, want.stream);
            prop_assert_eq!((got.events, got.discarded), (want.events, want.discarded));
            prop_assert_eq!(got.report.as_ref(), want.report.as_ref());
            prop_assert_eq!(got.error.as_ref(), want.error.as_ref());
            prop_assert_eq!(got.sink.as_ref(), want.sink.as_ref());
            prop_assert_eq!(got.observer.as_ref(), want.observer.as_ref());
        }
        prop_assert_eq!(
            outcome.failed_streams,
            expected.iter().filter(|s| s.error.is_some()).count()
        );
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
