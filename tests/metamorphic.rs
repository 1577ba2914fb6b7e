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
//! one window.

use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use endurance_core::{
    MonitorConfig, ReductionSession, ReferenceModel, WindowDecision, WindowStrategy,
};
use mm_sim::{PerturbationSchedule, Scenario, Simulation};
use trace_model::{EventSink, Timestamp, TraceError, TraceEvent, Window, WindowAssembler};

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
fn permute_groups(events: &[TraceEvent], seed: u64) -> (Vec<TraceEvent>, usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
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
        let (permuted, changed) = permute_groups(&events, shuffle_seed);
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
