//! The full store lifecycle — write → rotate → compact → replay —
//! exercised end to end through the public crates:
//!
//! * replay of a compacted store is byte-for-byte identical to replay of
//!   the uncompacted store for all retained windows;
//! * `MultiStreamExperiment::run_durable` reproduces the in-memory fleet
//!   confusion matrices exactly after a cold reopen, and each lane's
//!   payload bytes equal a standalone per-stream session's.

use std::time::Duration;

use endurance_core::{MonitorConfig, ReductionSession, WindowDecision};
use endurance_eval::{Experiment, MultiStreamExperiment};
use endurance_store::{Compactor, LaneWriter, MaintenancePolicy, StoreConfig, StoreReader};
use mm_sim::{PerturbationSchedule, Scenario};
use trace_model::{EventSink, EventSource, EventTypeId, Timestamp, TraceError, TraceEvent};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("endurance-lifecycle-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A sink keeping the exact encoded bytes, the in-memory ground truth.
#[derive(Debug, Default)]
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
fn compacted_replay_is_byte_for_byte_identical_to_uncompacted_replay() {
    let events = source_events(300, 11_000, 6);
    let dir = temp_dir("compact-replay");
    // Tiny segments so the session's recorded windows spread over many
    // files and the merge pass has real work.
    let writer = LaneWriter::create(&dir, 0, StoreConfig::default().with_segment_max_windows(1))
        .expect("lane");
    let mut session = ReductionSession::new(config())
        .expect("session")
        .with_sink(writer)
        .with_observer(Vec::<WindowDecision>::new());
    session.push_batch(&events).expect("push");
    let outcome = session.finish().expect("finish");
    outcome.sink.close().expect("close");

    // Snapshot every replay surface before compaction.
    let before = StoreReader::open(&dir).expect("open");
    let events_before = before.lane_events(0).expect("events");
    let bytes_before = before.lane_payload_bytes(0).expect("bytes");
    let entries_before = before.lane_windows(0).expect("windows").to_vec();
    assert!(
        entries_before.len() >= 3,
        "the burst must record several windows for the merge to matter"
    );
    let span = (
        Timestamp::from_nanos(entries_before[1].start_ns),
        Timestamp::from_nanos(entries_before[entries_before.len() - 1].end_ns),
    );
    let ranged_before = before.windows_in_range(0, span.0, span.1).expect("range");
    drop(before);

    let report = Compactor::new(&dir, MaintenancePolicy::merge_below(u64::MAX))
        .compact()
        .expect("compact");
    assert!(report.merged_runs() > 0, "{report}");
    assert_eq!(report.windows_dropped(), 0);

    // Every replay surface answers identically after compaction.
    let after = StoreReader::open(&dir).expect("reopen");
    assert!(after.recovery().clean);
    assert_eq!(after.lane_events(0).expect("events"), events_before);
    assert_eq!(after.lane_payload_bytes(0).expect("bytes"), bytes_before);
    assert_eq!(
        after.windows_in_range(0, span.0, span.1).expect("range"),
        ranged_before
    );
    let ids_after: Vec<u64> = after
        .lane_windows(0)
        .expect("windows")
        .iter()
        .map(|w| w.window_id)
        .collect();
    let ids_before: Vec<u64> = entries_before.iter().map(|w| w.window_id).collect();
    assert_eq!(ids_after, ids_before);

    // The lazy EventSource replay agrees too.
    let mut replay = after.replay_lane(0).expect("replay");
    let mut drained = Vec::new();
    replay.fill(&mut drained, usize::MAX);
    assert!(replay.error().is_none());
    assert_eq!(drained, events_before);

    std::fs::remove_dir_all(&dir).ok();
}

fn small_fleet(devices: usize) -> MultiStreamExperiment {
    let streams = (0..devices as u64)
        .map(|device| {
            let perturbations = PerturbationSchedule::periodic(
                Timestamp::from(Duration::from_secs(25)),
                Duration::from_secs(20),
                Duration::from_secs(5),
                0.9,
                Timestamp::from(Duration::from_secs(70)),
            )
            .expect("schedule");
            let scenario = Scenario::builder(&format!("lifecycle-fleet-{device}"))
                .duration(Duration::from_secs(70))
                .reference_duration(Duration::from_secs(20))
                .perturbations(perturbations)
                .seed(23 + device)
                .build()
                .expect("scenario");
            Experiment::with_paper_monitor(scenario).expect("experiment")
        })
        .collect();
    MultiStreamExperiment::new(streams).expect("fleet")
}

#[test]
fn fleet_durable_reproduces_in_memory_confusion_and_per_stream_bytes() {
    let dir = temp_dir("fleet");
    let fleet = small_fleet(3);

    let live = fleet.run().expect("live fleet");
    let durable = fleet
        .run_durable(
            &dir,
            StoreConfig::default().with_segment_max_windows(2),
            Some(MaintenancePolicy::merge_below(u64::MAX)),
        )
        .expect("durable fleet");

    // Confusion matrices recomputed from the reopened (and compacted)
    // store match the in-memory fleet exactly, stream by stream.
    for (replayed, live_stream) in durable.observed.confusion.iter().zip(&live.streams) {
        assert_eq!(replayed, &live_stream.confusion);
    }
    assert_eq!(durable.observed.fleet_confusion, live.confusion);
    assert!(durable.recovery.clean);
    assert!(durable.observed.windows > 0);

    // Byte-for-byte: each lane equals a standalone per-stream session
    // recording into memory.
    let reader = StoreReader::open(&dir).expect("reopen");
    for (lane, experiment) in fleet.streams().iter().enumerate() {
        let registry = experiment.scenario.registry().expect("registry");
        let mut simulation = mm_sim::Simulation::new(&experiment.scenario, &registry).expect("sim");
        let mut session = ReductionSession::new(experiment.monitor.clone())
            .expect("session")
            .with_sink(EncodedSink::default());
        session.push_source(&mut simulation).expect("push");
        let memory = session.finish().expect("finish").sink;
        assert!(!memory.bytes.is_empty(), "lane {lane} must record");
        assert_eq!(
            reader.lane_payload_bytes(lane as u32).expect("bytes"),
            memory.bytes,
            "lane {lane} bytes"
        );
        assert_eq!(
            reader.lane_events(lane as u32).expect("events"),
            memory.events,
            "lane {lane} events"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
