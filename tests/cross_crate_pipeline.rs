//! Cross-crate integration: recorded traces survive a codec round trip,
//! reference models can be saved and reused, and the periodicity extension
//! further shrinks the recorded volume on periodic workloads.

use std::time::Duration;

use endurance_core::{
    MonitorConfig, PeriodicSuppressor, ReductionSession, ReferenceModel, WindowPmf,
};
use endurance_eval::{DelayCalibration, Experiment};
use mm_sim::{PerturbationSchedule, Scenario, Simulation};
use trace_model::codec::{BinaryDecoder, BinaryEncoder, TraceDecoder, TraceEncoder};
use trace_model::{Timestamp, Window, WindowAssembler};

fn fast_endurance(seed: u64) -> Scenario {
    let reference = Duration::from_secs(40);
    let duration = Duration::from_secs(280);
    let perturbations = PerturbationSchedule::periodic(
        Timestamp::from(reference),
        Duration::from_secs(60),
        Duration::from_secs(12),
        0.9,
        Timestamp::from(duration),
    )
    .expect("valid schedule");
    Scenario::builder("fast-endurance-cross")
        .duration(duration)
        .reference_duration(reference)
        .perturbations(perturbations)
        .seed(seed)
        .build()
        .expect("valid scenario")
}

fn monitor_config(scenario: &Scenario) -> MonitorConfig {
    let registry = scenario.registry().expect("registry");
    MonitorConfig::builder()
        .dimensions(registry.len())
        .k(15)
        .alpha(1.2)
        .reference_duration(scenario.reference_duration)
        .build()
        .expect("valid monitor config")
}

#[test]
fn recorded_trace_round_trips_through_the_binary_codec() {
    let scenario = fast_endurance(21);
    let registry = scenario.registry().expect("registry");
    let config = monitor_config(&scenario);
    let mut simulation = Simulation::new(&scenario, &registry).expect("simulation");
    let mut session = ReductionSession::new(config).expect("session");
    session.push_source(&mut simulation).expect("push");
    let outcome = session.finish().expect("finish");
    let recorded_events = outcome.sink.into_events();
    assert!(!recorded_events.is_empty());

    let mut encoded = Vec::new();
    BinaryEncoder::new()
        .encode(&recorded_events, &mut encoded)
        .expect("encode recorded trace");
    let decoded = BinaryDecoder::new().decode(&encoded).expect("decode");
    assert_eq!(decoded, recorded_events);
    // The on-disk form is smaller than the raw accounting size.
    assert!((encoded.len() as u64) < outcome.report.recorder.recorded_raw_bytes);
    // Every recorded event belongs to the registry.
    assert!(decoded
        .iter()
        .all(|ev| registry.name_of(ev.event_type).is_some()));
}

#[test]
fn curated_reference_model_can_be_saved_and_reused() {
    // Learn a model on a clean reference run...
    let reference_scenario = Scenario::builder("reference-capture")
        .duration(Duration::from_secs(40))
        .reference_duration(Duration::from_secs(40))
        .seed(33)
        .build()
        .expect("scenario");
    let registry = reference_scenario.registry().expect("registry");
    let config = monitor_config(&reference_scenario);
    let events: Vec<_> = Simulation::new(&reference_scenario, &registry)
        .expect("simulation")
        .collect();
    let windows: Vec<Window> = WindowAssembler::for_time(Duration::from_millis(40))
        .expect("window length")
        .windows(events)
        .collect();
    let model = ReferenceModel::learn_from_windows(&windows, &config).expect("learn");

    // ... persist it to JSON (the curated database) ...
    let json = model.to_json().expect("serialise");
    let reloaded = ReferenceModel::from_json(&json).expect("reload");

    // ... and monitor a *different* run without any learning phase.
    let monitored_scenario = fast_endurance(34);
    let mut monitored_events = Simulation::new(&monitored_scenario, &registry).expect("simulation");
    let mut session = ReductionSession::from_model_with_config(config, reloaded)
        .expect("session from curated model")
        .with_observer(Vec::new());
    session
        .push_source(&mut monitored_events)
        .expect("monitor with curated model");
    let outcome = session.finish().expect("finish");

    assert!(outcome.report.anomalous_windows > 0);
    assert!(outcome.report.reduction_factor() > 2.0);
    // Every window of the monitored run is scored (no learning segment).
    assert_eq!(
        outcome.report.monitored_windows,
        outcome.observer.len() as u64
    );
}

#[test]
fn periodic_suppressor_shrinks_the_recorded_set_further() {
    use endurance_core::OnlineMonitor;

    let scenario = fast_endurance(55);
    let registry = scenario.registry().expect("registry");
    let config = monitor_config(&scenario);

    // Window the whole run, split reference vs monitored.
    let events: Vec<_> = Simulation::new(&scenario, &registry)
        .expect("simulation")
        .collect();
    let reference_end = Timestamp::from(scenario.reference_duration);
    let (reference, monitored): (Vec<Window>, Vec<Window>) =
        WindowAssembler::for_time(Duration::from_millis(40))
            .expect("window length")
            .windows(events)
            .partition(|w| w.end <= reference_end);

    let model = ReferenceModel::learn_from_windows(&reference, &config).expect("learn");
    let mut monitor = OnlineMonitor::new(model);
    let mut suppressor = PeriodicSuppressor::new(64, 0.05);

    let mut recorded_plain = 0u64;
    let mut recorded_with_suppressor = 0u64;
    for window in &monitored {
        let pmf = WindowPmf::from_window(window, config.dimensions, config.smoothing);
        let decision = monitor.observe_pmf(window, &pmf).expect("observe");
        if decision.recorded() {
            recorded_plain += 1;
            if suppressor.should_record(&pmf) {
                recorded_with_suppressor += 1;
            }
        }
    }

    assert!(recorded_plain > 10, "need a meaningful number of anomalies");
    assert_eq!(
        recorded_with_suppressor + suppressor.suppressed(),
        recorded_plain
    );
    assert!(
        suppressor.suppressed() > 0,
        "periodic perturbations should produce repeated anomaly signatures"
    );
    assert!(recorded_with_suppressor < recorded_plain);
}

#[test]
fn delay_calibration_from_events_matches_decision_based_calibration() {
    let scenario = fast_endurance(77);
    let registry = scenario.registry().expect("registry");
    let events: Vec<_> = Simulation::new(&scenario, &registry)
        .expect("simulation")
        .collect();
    let from_events =
        DelayCalibration::from_events(&scenario.perturbations, &events).expect("delays");

    let experiment = Experiment::new(scenario.clone(), monitor_config(&scenario)).expect("exp");
    let result = experiment.run().expect("run");
    let from_decisions = result.delays.expect("delays");

    // Window-granularity calibration agrees with event-granularity
    // calibration to within one window (40 ms) plus a small margin.
    let diff_start = from_events
        .delta_start
        .as_secs_f64()
        .max(from_decisions.delta_start.as_secs_f64())
        - from_events
            .delta_start
            .as_secs_f64()
            .min(from_decisions.delta_start.as_secs_f64());
    assert!(diff_start < 0.1, "delta_s differs by {diff_start}s");
    assert!(from_events.delta_start > Duration::from_millis(100));
}
