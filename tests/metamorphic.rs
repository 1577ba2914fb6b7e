//! Metamorphic relations: what the paper's maths promises, as properties
//! over generated traces.
//!
//! **Order within a timestamp.** A window's feature is its event-type pmf,
//! a count per type, so the order of events that share a timestamp (and
//! therefore a window) is invisible to it: permuting each such group must
//! leave every window's event multiset, every divergence and LOF score
//! (bit for bit) and every verdict unchanged. `mm-sim` timestamps are
//! nanosecond-distinct, so the traces are floored to 1 ms first; the
//! window length is a whole number of milliseconds, so each group lies in
//! one window. The relation holds past the session too: a churning fleet
//! reduced into one store lane per stream, compacted and replayed cold
//! decides the same and stores, window by window, the same events at each
//! timestamp.
//!
//! **Time shift.** Windows are slots of `L` from time zero and a window's
//! feature is its pmf, so shifting every timestamp by a whole number of
//! windows `c · L` shifts every window by the same and changes no pmf:
//! every decision is the same (scores by bits, bounds shifted), the same
//! window ids come back, and a replay returns the original events,
//! shifted. A learning session learns the same model, since its reference
//! horizon starts with its first window; and a churning fleet reduced
//! into the store, compacted and replayed cold keeps it, up to a few
//! windows short of `Timestamp::MAX`, where a packed or templated block's
//! first row is still its small difference from the window start and an
//! `EDV` block's absolute timestamps take ten bytes.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use endurance_core::{
    EmbeddedModel, FleetReducer, MonitorConfig, ReductionSession, ReferenceModel, WindowDecision,
    WindowStrategy,
};
use endurance_eval::ChurnExperiment;
use endurance_store::{
    CodecId, Compactor, LaneWriter, MaintenancePolicy, StoreConfig, StoreReader, StoreWriter,
};
use mm_sim::{FleetEvent, FleetScenario, FleetSim, PerturbationSchedule, Scenario, Simulation};
use trace_model::{
    EventSink, StreamId, Timestamp, TraceError, TraceEvent, Window, WindowAssembler, WindowId,
};

const WINDOW: Duration = Duration::from_millis(40);
const REFERENCE: Duration = Duration::from_secs(20);

/// Keeps each recorded window's events as handed to the sink.
#[derive(Debug, Default)]
struct WindowSink {
    windows: Vec<Vec<TraceEvent>>,
}

impl EventSink for WindowSink {
    fn record(&mut self, events: &[TraceEvent]) -> Result<(), TraceError> {
        self.windows.push(events.to_vec());
        Ok(())
    }

    fn recorded_events(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }
}

/// A `duration` playback of seed `seed`, perturbed 4 s in every 10 s after
/// its clean reference segment when `perturbed`, with timestamps floored
/// to 1 ms; and the registry size.
fn floored_trace(seed: u64, duration: Duration, perturbed: bool) -> (Vec<TraceEvent>, usize) {
    let mut builder = Scenario::builder("order-within-a-timestamp")
        .duration(duration)
        .reference_duration(REFERENCE)
        .seed(seed);
    if perturbed {
        builder = builder.perturbations(
            PerturbationSchedule::periodic(
                Timestamp::from(REFERENCE),
                Duration::from_secs(10),
                Duration::from_secs(4),
                0.9,
                Timestamp::from(duration),
            )
            .expect("valid schedule"),
        );
    }
    let scenario = builder.build().expect("valid scenario");
    let registry = scenario.registry().expect("registry");
    let events = Simulation::new(&scenario, &registry)
        .expect("simulation")
        .map(|mut event| {
            let millis = event.timestamp.as_nanos() / 1_000_000;
            event.timestamp = Timestamp::from_nanos(millis * 1_000_000);
            event
        })
        .collect();
    (events, registry.len())
}

/// The model every case is scored against: learned once, from a clean
/// floored run.
fn model() -> &'static ReferenceModel {
    static MODEL: OnceLock<ReferenceModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let (events, dimensions) = floored_trace(7, REFERENCE, false);
        let config = MonitorConfig::builder()
            .dimensions(dimensions)
            .window(WindowStrategy::Time(WINDOW))
            .reference_duration(REFERENCE)
            .build()
            .expect("valid monitor config");
        let windows: Vec<Window> = windows_of(&events);
        ReferenceModel::learn_from_windows(&windows, &config).expect("learn")
    })
}

fn windows_of(events: &[TraceEvent]) -> Vec<Window> {
    WindowAssembler::for_time(WINDOW)
        .expect("window length")
        .windows(events.iter().copied())
        .collect()
}

/// Shuffles every run of equal timestamps; returns the trace and how many
/// runs came out in another order.
fn permute_groups(events: &[TraceEvent], rng: &mut ChaCha8Rng) -> (Vec<TraceEvent>, usize) {
    let mut permuted = events.to_vec();
    let mut changed = 0;
    let mut start = 0;
    while start < permuted.len() {
        let at = permuted[start].timestamp;
        let end = start
            + permuted[start..]
                .iter()
                .take_while(|e| e.timestamp == at)
                .count();
        let group = &mut permuted[start..end];
        let before = group.to_vec();
        for i in (1..group.len()).rev() {
            group.swap(i, rng.gen_range(0..i + 1));
        }
        changed += usize::from(group != before.as_slice());
        start = end;
    }
    (permuted, changed)
}

/// A window's events as a sorted multiset.
fn multiset(events: &[TraceEvent]) -> Vec<(u64, u16, u32, u8)> {
    let mut keys: Vec<_> = events
        .iter()
        .map(|e| {
            (
                e.timestamp.as_nanos(),
                e.event_type.as_u16(),
                e.payload,
                e.severity.as_u8(),
            )
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// A decision with its scores as bits, so `-0.0` / `0.0` and NaN payloads
/// would count as differences.
fn decision_bits(d: &WindowDecision) -> impl PartialEq + std::fmt::Debug {
    (
        d.window_id,
        d.start,
        d.end,
        d.events,
        d.has_error_event,
        d.divergence.map(f64::to_bits),
        d.lof.map(f64::to_bits),
        d.verdict,
    )
}

fn run(events: &[TraceEvent]) -> (Vec<WindowDecision>, WindowSink) {
    let mut session = ReductionSession::from_model(model().clone())
        .expect("session")
        .with_sink(WindowSink::default())
        .with_observer(Vec::new());
    session.push_batch(events).expect("push");
    let outcome = session.finish().expect("finish");
    (outcome.observer, outcome.sink)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn order_within_a_timestamp_changes_no_decision(
        trace_seed in 0u64..1_000_000,
        shuffle_seed in any::<u64>(),
    ) {
        let (events, _) = floored_trace(trace_seed, Duration::from_secs(40), true);
        let (permuted, changed) =
            permute_groups(&events, &mut ChaCha8Rng::seed_from_u64(shuffle_seed));
        eprintln!("trace seed {trace_seed}: {changed} same-timestamp groups permuted");
        prop_assert!(changed > 1_000, "only {} groups permuted", changed);

        let (windows, permuted_windows) = (windows_of(&events), windows_of(&permuted));
        prop_assert_eq!(windows.len(), permuted_windows.len());
        for (a, b) in windows.iter().zip(&permuted_windows) {
            prop_assert_eq!((a.start, a.end), (b.start, b.end));
            prop_assert_eq!(multiset(&a.events), multiset(&b.events));
        }

        let (decisions, sink) = run(&events);
        let (permuted_decisions, permuted_sink) = run(&permuted);
        prop_assert!(decisions.iter().any(|d| d.lof.is_some()), "no window reached LOF");
        prop_assert_eq!(decisions.len(), permuted_decisions.len());
        for (a, b) in decisions.iter().zip(&permuted_decisions) {
            prop_assert_eq!(decision_bits(a), decision_bits(b));
        }
        prop_assert_eq!(sink.windows.len(), permuted_sink.windows.len());
        for (a, b) in sink.windows.iter().zip(&permuted_sink.windows) {
            prop_assert_eq!(multiset(a), multiset(b));
        }
    }
}

/// The fleet model: the churn device template's curated reference, learned
/// once.
fn fleet_model() -> &'static ReferenceModel {
    static MODEL: OnceLock<ReferenceModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        ChurnExperiment::churn_demo(1, 7)
            .expect("valid experiment")
            .learn_reference()
            .expect("learn")
    })
}

/// A churning fleet's trace of seed `seed`, every timestamp floored to
/// 1 ms: deliveries and stream closes in delivery order.
fn floored_fleet(devices: u32, seed: u64) -> Vec<FleetEvent> {
    let scenario = FleetScenario::churn_demo(devices, seed).expect("valid scenario");
    FleetSim::new(&scenario)
        .expect("valid sim")
        .map(|fleet_event| match fleet_event {
            FleetEvent::Delivery(stream, mut event) => {
                let millis = event.timestamp.as_nanos() / 1_000_000;
                event.timestamp = Timestamp::from_nanos(millis * 1_000_000);
                FleetEvent::Delivery(stream, event)
            }
            closed => closed,
        })
        .collect()
}

/// `fleet` with every stream's runs of equal timestamps shuffled, each
/// delivery kept in its place in the interleaving; and how many runs came
/// out in another order.
fn permute_fleet(fleet: &[FleetEvent], seed: u64) -> (Vec<FleetEvent>, usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut streams: BTreeMap<StreamId, Vec<TraceEvent>> = BTreeMap::new();
    for fleet_event in fleet {
        if let FleetEvent::Delivery(stream, event) = fleet_event {
            streams.entry(*stream).or_default().push(*event);
        }
    }
    let mut changed = 0;
    let mut permuted: BTreeMap<StreamId, std::vec::IntoIter<TraceEvent>> = BTreeMap::new();
    for (stream, events) in streams {
        let (events, groups) = permute_groups(&events, &mut rng);
        changed += groups;
        permuted.insert(stream, events.into_iter());
    }
    let fleet = fleet
        .iter()
        .map(|&fleet_event| match fleet_event {
            FleetEvent::Delivery(stream, _) => {
                let next = permuted.get_mut(&stream).and_then(Iterator::next);
                FleetEvent::Delivery(stream, next.expect("one event per delivery"))
            }
            closed => closed,
        })
        .collect();
    (fleet, changed)
}

/// A window as a cold reader replays it: id, bounds and its events as a
/// multiset.
type StoredWindow = (u64, u64, u64, Vec<(u64, u16, u32, u8)>);

/// Reduces `fleet` into one lane per stream of a fresh store in `dir`,
/// closes the lanes, compacts the store (every lane small and one segment:
/// each is read once) and replays it cold. Returns every stream's
/// decisions and every lane's windows.
fn run_through_the_store(
    fleet: &[FleetEvent],
    dir: &std::path::Path,
) -> (
    BTreeMap<u32, Vec<WindowDecision>>,
    BTreeMap<u32, Vec<StoredWindow>>,
) {
    let _ = std::fs::remove_dir_all(dir);
    let lanes = Arc::new(StoreWriter::open(dir).expect("store"));
    let mut reducer = FleetReducer::from_model(fleet_model().clone(), 2)
        .expect("fleet")
        .with_sinks(move |stream: StreamId| {
            lanes
                .lane(stream.as_u32(), StoreConfig::default())
                .expect("a lane per stream")
        })
        .with_observers(|_| Vec::<WindowDecision>::new());
    for fleet_event in fleet {
        match fleet_event {
            FleetEvent::Delivery(stream, event) => reducer.push(*stream, *event).expect("push"),
            FleetEvent::StreamClosed(stream) => reducer.close_stream(*stream).expect("close"),
        }
    }
    let outcome = reducer.finish().expect("finish");
    let mut decisions = BTreeMap::new();
    for stream in outcome.streams {
        assert!(stream.is_ok(), "{:?}", stream.error);
        let writer: LaneWriter = stream.sink.expect("sink");
        writer.close().expect("close the lane");
        let lane = stream.stream.as_u32();
        let first = decisions.insert(lane, stream.observer.expect("observer"));
        assert!(first.is_none(), "stream {lane} was reopened");
    }

    let policy = MaintenancePolicy::merge_below(u64::MAX / 4).with_recompress(CodecId::DeltaVarint);
    let report = Compactor::new(dir, policy).compact().expect("compact");
    assert!(!report.lanes.is_empty(), "{report}");
    assert_eq!(
        report.lanes_read_once as usize,
        report.lanes.len(),
        "{report}"
    );

    let reader = StoreReader::open(dir).expect("reopen");
    assert!(reader.recovery().clean, "{:?}", reader.recovery());
    let mut stored = BTreeMap::new();
    for lane in reader.lane_ids() {
        let entries = reader.lane_windows(lane).expect("lane index").to_vec();
        let windows = entries
            .iter()
            .map(|entry| {
                let events = reader
                    .window_events(lane, WindowId::new(entry.window_id))
                    .expect("replay")
                    .expect("a listed window");
                (
                    entry.window_id,
                    entry.start_ns,
                    entry.end_ns,
                    multiset(&events),
                )
            })
            .collect();
        stored.insert(lane, windows);
    }
    std::fs::remove_dir_all(dir).ok();
    (decisions, stored)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn order_within_a_timestamp_changes_nothing_the_store_keeps(
        fleet_seed in 0u64..1_000_000,
        shuffle_seed in any::<u64>(),
    ) {
        let fleet = floored_fleet(60, fleet_seed);
        let (permuted, changed) = permute_fleet(&fleet, shuffle_seed);
        eprintln!("fleet seed {fleet_seed}: {changed} same-timestamp groups permuted");
        prop_assert!(changed > 1_000, "only {} groups permuted", changed);

        let dir = std::env::temp_dir().join(format!(
            "endurance-metamorphic-{}-{fleet_seed}",
            std::process::id()
        ));
        let (decisions, stored) = run_through_the_store(&fleet, &dir.join("ordered"));
        let (permuted_decisions, permuted_stored) =
            run_through_the_store(&permuted, &dir.join("permuted"));
        std::fs::remove_dir_all(&dir).ok();

        prop_assert!(decisions.values().flatten().any(|d| d.lof.is_some()), "no window reached LOF");
        prop_assert!(stored.values().any(|lane| !lane.is_empty()), "nothing was recorded");
        prop_assert_eq!(decisions.len(), permuted_decisions.len());
        for ((lane, a), (permuted_lane, b)) in decisions.iter().zip(&permuted_decisions) {
            prop_assert_eq!(lane, permuted_lane);
            prop_assert_eq!(a.len(), b.len());
            for (a, b) in a.iter().zip(b) {
                prop_assert_eq!(decision_bits(a), decision_bits(b));
            }
        }
        prop_assert_eq!(stored, permuted_stored);
    }
}

/// `decision` as it reads `shift` ns earlier.
fn shifted_back(mut decision: WindowDecision, shift: u64) -> WindowDecision {
    decision.start = Timestamp::from_nanos(decision.start.as_nanos() - shift);
    decision.end = Timestamp::from_nanos(decision.end.as_nanos() - shift);
    decision
}

/// A shift by whole windows of a trace whose last event is at `last_ns`:
/// `c` windows, or — `short_of_the_end` is `Some(k)` — the most that keeps
/// the last event `k` windows short of [`Timestamp::MAX`].
fn window_shift(last_ns: u64, c: u64, short_of_the_end: Option<u64>) -> u64 {
    let window = WINDOW.as_nanos() as u64;
    match short_of_the_end {
        Some(k) => ((u64::MAX - last_ns) / window - k) * window,
        None => c * window,
    }
}

/// `events` `shift` ns later.
fn shift_events(events: &[TraceEvent], shift: u64) -> Vec<TraceEvent> {
    events
        .iter()
        .map(|&event| TraceEvent {
            timestamp: Timestamp::from_nanos(event.timestamp.as_nanos() + shift),
            ..event
        })
        .collect()
}

/// A learning session over `events`: the digest of the model it learned,
/// its decisions and the windows it recorded.
fn learn_and_run(
    events: &[TraceEvent],
    dimensions: usize,
) -> (u64, Vec<WindowDecision>, WindowSink) {
    let config = MonitorConfig::builder()
        .dimensions(dimensions)
        .window(WindowStrategy::Time(WINDOW))
        .reference_duration(REFERENCE)
        .build()
        .expect("valid monitor config");
    let mut session = ReductionSession::new(config)
        .expect("session")
        .with_sink(WindowSink::default())
        .with_observer(Vec::new());
    session.push_batch(events).expect("push");
    let model = session.model().expect("the session learned");
    let digest = EmbeddedModel::embed(model).expect("embed").digest();
    let outcome = session.finish().expect("finish");
    (digest, outcome.observer, outcome.sink)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A learning session over a trace shifted by `c` windows — always past
    /// its 20 s reference horizon, or up to a few windows short of the end
    /// of time — learns the same model, decides the same (scores by bits,
    /// bounds shifted) and records the same windows, shifted.
    #[test]
    fn a_time_shift_changes_no_decision_of_a_learning_session(
        trace_seed in 0u64..1_000_000,
        c in 1_000u64..1_000_000_000,
        short_of_the_end in prop::option::of(1u64..4),
    ) {
        let (events, dimensions) = floored_trace(trace_seed, Duration::from_secs(40), true);
        let last = events.last().expect("an event").timestamp.as_nanos();
        let shift = window_shift(last, c, short_of_the_end);
        eprintln!("trace seed {trace_seed}: shifted {shift} ns");
        let (digest, decisions, sink) = learn_and_run(&events, dimensions);
        let (shifted_digest, shifted_decisions, shifted_sink) =
            learn_and_run(&shift_events(&events, shift), dimensions);

        prop_assert_eq!(digest, shifted_digest);
        prop_assert!(decisions.iter().any(|d| d.lof.is_some()), "no window reached LOF");
        prop_assert_eq!(decisions.len(), shifted_decisions.len());
        for (a, b) in decisions.iter().zip(&shifted_decisions) {
            prop_assert_eq!(decision_bits(a), decision_bits(&shifted_back(*b, shift)));
        }
        prop_assert!(!sink.windows.is_empty(), "nothing was recorded");
        let expected: Vec<Vec<TraceEvent>> =
            sink.windows.iter().map(|window| shift_events(window, shift)).collect();
        prop_assert_eq!(expected, shifted_sink.windows);
    }

    /// A churning fleet shifted by `c` windows — or to a few windows short
    /// of the end of time, where every timestamp an `EDV` block or a
    /// payload stores takes ten bytes — through the store: the same
    /// decisions (bounds shifted), the same window ids, and a cold replay
    /// of every window's events, shifted.
    #[test]
    fn a_time_shift_changes_nothing_the_store_keeps_but_the_times(
        fleet_seed in 0u64..1_000_000,
        c in 1u64..1_000_000_000,
        short_of_the_end in prop::option::of(1u64..4),
    ) {
        let fleet = floored_fleet(60, fleet_seed);
        let last = fleet
            .iter()
            .filter_map(|fleet_event| match fleet_event {
                FleetEvent::Delivery(_, event) => Some(event.timestamp.as_nanos()),
                FleetEvent::StreamClosed(_) => None,
            })
            .max()
            .expect("a delivery");
        let shift = window_shift(last, c, short_of_the_end);
        eprintln!("fleet seed {fleet_seed}: shifted {shift} ns");
        let shifted: Vec<FleetEvent> = fleet
            .iter()
            .map(|&fleet_event| match fleet_event {
                FleetEvent::Delivery(stream, event) => {
                    FleetEvent::Delivery(stream, shift_events(&[event], shift)[0])
                }
                closed => closed,
            })
            .collect();

        let dir = std::env::temp_dir().join(format!(
            "endurance-metamorphic-shift-{}-{fleet_seed}",
            std::process::id()
        ));
        let (decisions, stored) = run_through_the_store(&fleet, &dir.join("original"));
        let (shifted_decisions, shifted_stored) =
            run_through_the_store(&shifted, &dir.join("shifted"));
        std::fs::remove_dir_all(&dir).ok();

        prop_assert!(decisions.values().flatten().any(|d| d.lof.is_some()), "no window reached LOF");
        prop_assert!(stored.values().any(|lane| !lane.is_empty()), "nothing was recorded");
        prop_assert_eq!(decisions.len(), shifted_decisions.len());
        for ((lane, a), (shifted_lane, b)) in decisions.iter().zip(&shifted_decisions) {
            prop_assert_eq!(lane, shifted_lane);
            prop_assert_eq!(a.len(), b.len());
            for (a, b) in a.iter().zip(b) {
                prop_assert_eq!(decision_bits(a), decision_bits(&shifted_back(*b, shift)));
            }
        }
        let expected: BTreeMap<u32, Vec<StoredWindow>> = stored
            .into_iter()
            .map(|(lane, windows)| {
                let windows = windows
                    .into_iter()
                    .map(|(id, start_ns, end_ns, events)| {
                        let events = events
                            .into_iter()
                            .map(|(ns, ty, payload, severity)| (ns + shift, ty, payload, severity))
                            .collect();
                        (id, start_ns + shift, end_ns + shift, events)
                    })
                    .collect();
                (lane, windows)
            })
            .collect();
        prop_assert_eq!(expected, shifted_stored);
    }
}
