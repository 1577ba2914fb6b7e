//! Equivalence of the three ways to feed a `ReductionSession`: pushing a
//! stream event-by-event, in ragged `push_batch` chunks, or draining it in
//! one `push_source` pass must yield identical decisions and report and
//! byte-for-byte identical sink contents. (The "batch reducer" of the
//! test names is that one-shot whole-stream pass.)

use std::time::Duration;

use endurance_core::{
    MonitorConfig, ReductionReport, ReductionSession, ReferenceModel, WindowDecision,
    WindowStrategy,
};
use mm_sim::{PerturbationSchedule, Scenario, Simulation};
use trace_model::{
    EventSink, MemorySource, Timestamp, TraceError, TraceEvent, Window, WindowAssembler,
};

/// A sink that keeps the recorded events and the exact encoded bytes the
/// recorder handed down: what would land on storage.
#[derive(Debug, Default, PartialEq)]
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

/// Simulated endurance workload: returns the event stream and the number
/// of event types in the scenario's registry (the pmf dimensionality).
fn endurance_events(seed: u64) -> (Vec<TraceEvent>, usize) {
    let reference = Duration::from_secs(40);
    let duration = Duration::from_secs(220);
    let perturbations = PerturbationSchedule::periodic(
        Timestamp::from(reference),
        Duration::from_secs(60),
        Duration::from_secs(12),
        0.9,
        Timestamp::from(duration),
    )
    .expect("valid schedule");
    let scenario = Scenario::builder("session-equivalence")
        .duration(duration)
        .reference_duration(reference)
        .perturbations(perturbations)
        .seed(seed)
        .build()
        .expect("valid scenario");
    let registry = scenario.registry().expect("registry");
    let events = Simulation::new(&scenario, &registry)
        .expect("simulation")
        .collect();
    (events, registry.len())
}

fn monitor_config(dimensions: usize, window: WindowStrategy) -> MonitorConfig {
    MonitorConfig::builder()
        .dimensions(dimensions)
        .k(15)
        .alpha(1.2)
        .window(window)
        .reference_duration(Duration::from_secs(40))
        .build()
        .expect("valid monitor config")
}

/// What one pass over a stream produced.
type Run = (ReductionReport, Vec<WindowDecision>, EncodedSink);

type Session = ReductionSession<EncodedSink, Vec<WindowDecision>>;

fn learning_session(config: &MonitorConfig) -> Session {
    ReductionSession::new(config.clone())
        .expect("session")
        .with_sink(EncodedSink::default())
        .with_observer(Vec::new())
}

fn finish(session: Session) -> Run {
    let outcome = session.finish().expect("finish");
    (outcome.report, outcome.observer, outcome.sink)
}

/// Drains the whole stream in one `push_source` pass.
fn run_source(mut session: Session, events: &[TraceEvent]) -> Run {
    let mut source = MemorySource::new(events.to_vec()).expect("ordered");
    let read = session.push_source(&mut source).expect("push_source");
    assert_eq!(read, events.len() as u64);
    finish(session)
}

/// Pushes the stream in chunks given by `chunks` (cycled); `0` means push
/// one event with `push`, anything else a `push_batch` of that size.
fn run_chunked(mut session: Session, events: &[TraceEvent], chunks: &[usize]) -> Run {
    let mut cursor = 0usize;
    let mut chunk_index = 0usize;
    while cursor < events.len() {
        let chunk = chunks[chunk_index % chunks.len()];
        chunk_index += 1;
        if chunk == 0 {
            session.push(events[cursor]).expect("push");
            cursor += 1;
        } else {
            let end = (cursor + chunk).min(events.len());
            session
                .push_batch(&events[cursor..end])
                .expect("push_batch");
            cursor = end;
        }
    }
    finish(session)
}

#[test]
fn event_by_event_session_matches_batch_reducer() {
    let (events, dims) = endurance_events(101);
    let config = monitor_config(dims, WindowStrategy::Time(Duration::from_millis(40)));
    let whole = run_source(learning_session(&config), &events);
    assert!(whole.0.anomalous_windows > 0, "workload has anomalies");
    assert!(!whole.2.bytes.is_empty(), "and records their encoded bytes");

    assert_eq!(run_chunked(learning_session(&config), &events, &[0]), whole);
}

#[test]
fn ragged_batches_match_batch_reducer() {
    let (events, dims) = endurance_events(102);
    let config = monitor_config(dims, WindowStrategy::Time(Duration::from_millis(40)));
    let whole = run_source(learning_session(&config), &events);

    // Mix single pushes with ragged batch sizes, including ones far larger
    // than a window and prime-sized ones that straddle window boundaries.
    let ragged = run_chunked(
        learning_session(&config),
        &events,
        &[1, 7, 0, 97, 1024, 3, 0, 4096],
    );
    assert_eq!(ragged, whole);
}

#[test]
fn count_window_session_matches_batch_reducer() {
    let (events, dims) = endurance_events(103);
    let config = monitor_config(dims, WindowStrategy::Count(256));
    let whole = run_source(learning_session(&config), &events);
    let ragged = run_chunked(learning_session(&config), &events, &[0, 13, 999]);
    assert_eq!(ragged, whole);

    // Count windows bound the open buffer by the window size itself.
    let mut probe = ReductionSession::new(config).expect("session");
    probe.push_batch(&events).expect("push");
    assert!(probe.peak_buffered_events() <= 256);
}

#[test]
fn curated_model_session_matches_batch_reducer() {
    // Learn a model from a dedicated clean reference run.
    let (reference_events, dims) = endurance_events(104);
    let config = monitor_config(dims, WindowStrategy::Time(Duration::from_millis(40)));
    let reference_end = Timestamp::from_secs(40);
    let windows: Vec<Window> = WindowAssembler::for_time(Duration::from_millis(40))
        .expect("window length")
        .windows(reference_events)
        .filter(|w| w.end <= reference_end)
        .collect();
    let model = ReferenceModel::learn_from_windows(&windows, &config).expect("learn");
    let model_json = model.to_json().expect("serialise");
    let curated_session = || {
        let model = ReferenceModel::from_json(&model_json).expect("reload");
        ReductionSession::from_model_with_config(config.clone(), model)
            .expect("session")
            .with_sink(EncodedSink::default())
            .with_observer(Vec::new())
    };

    let (events, _) = endurance_events(105);
    let whole = run_source(curated_session(), &events);
    // No learning phase: the stream is monitored from its first window.
    assert_eq!(whole.1.first().map(|d| d.window_id.index()), Some(0));
    assert_eq!(run_chunked(curated_session(), &events, &[0]), whole);
    assert_eq!(
        run_chunked(curated_session(), &events, &[64, 0, 5000]),
        whole
    );
}

#[test]
fn session_buffering_is_independent_of_stream_length() {
    // A 10-minute synthetic stream versus a 2-minute prefix: the peak
    // open-window buffer (the session's only stream-facing buffer) must
    // not grow with the run length.
    let tick_nanos = 250_000u64; // 4 kHz synthetic event rate
    let config = MonitorConfig::builder()
        .dimensions(4)
        .k(10)
        .reference_duration(Duration::from_secs(5))
        .build()
        .expect("config");

    let peak_for = |total: Duration| {
        let mut session = ReductionSession::new(config.clone()).expect("session");
        let end = Timestamp::from(total).as_nanos();
        for i in 0..end / tick_nanos {
            let event = TraceEvent::new(
                Timestamp::from_nanos(i * tick_nanos),
                trace_model::EventTypeId::new((i % 4) as u16),
                0,
            );
            session.push(event).expect("push");
        }
        assert!(session.windows_monitored() > 0);
        session.peak_buffered_events()
    };

    let short = peak_for(Duration::from_secs(120));
    let long = peak_for(Duration::from_secs(600));
    assert_eq!(
        short, long,
        "peak buffering must be O(window), not O(stream): {short} vs {long}"
    );
}
