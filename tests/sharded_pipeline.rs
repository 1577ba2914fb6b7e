//! End-to-end equivalence of the multi-stream pipeline on the simulated
//! endurance workload: a fleet reduced by one `FleetReducer` must match,
//! stream for stream, the standalone single-session runs of the same
//! experiments — reports, decisions and detection quality.

use std::time::Duration;

use endurance::endurance_core::FleetReducer;
use endurance::endurance_eval::{Experiment, MultiStreamExperiment};
use endurance::mm_sim::{PerturbationSchedule, Scenario, Simulation};
use endurance::trace_model::{InterleavedStreams, StreamId, Timestamp};

const FLEET: usize = 3;
const BASE_SEED: u64 = 41;

/// A compact endurance workload (40 s reference, ~3 perturbations) so the
/// fleet comparison stays affordable in debug builds.
fn device_experiment(seed: u64) -> Experiment {
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
    let scenario = Scenario::builder("sharded-pipeline")
        .duration(duration)
        .reference_duration(reference)
        .perturbations(perturbations)
        .seed(seed)
        .build()
        .expect("valid scenario");
    Experiment::with_paper_monitor(scenario).expect("experiment")
}

fn fleet_experiment(base_seed: u64) -> MultiStreamExperiment {
    MultiStreamExperiment::new(
        (0..FLEET as u64)
            .map(|offset| device_experiment(base_seed + offset))
            .collect(),
    )
    .expect("fleet")
}

#[test]
fn multi_stream_run_matches_standalone_experiments_per_stream() {
    let fleet = fleet_experiment(BASE_SEED);
    let result = fleet.run().expect("fleet run");

    assert_eq!(result.streams.len(), FLEET);

    let mut summed_monitored = 0u64;
    let mut summed_confusion_total = 0u64;
    for (index, stream) in result.streams.iter().enumerate() {
        assert_eq!(stream.stream, StreamId::new(index as u32));

        // The standalone, single-session run of the same experiment.
        let standalone = device_experiment(BASE_SEED + index as u64)
            .run()
            .expect("standalone run");

        assert_eq!(
            stream.report, standalone.report,
            "stream {index}: fleet report must equal the standalone session's"
        );
        assert_eq!(
            stream.decisions, standalone.decisions,
            "stream {index}: decision streams must be identical"
        );
        assert_eq!(
            stream.confusion, standalone.confusion,
            "stream {index}: detection quality must be identical"
        );
        summed_monitored += stream.report.monitored_windows;
        summed_confusion_total += stream.confusion.total();
    }

    // Consolidation: the aggregate is the exact sum of the per-stream
    // reports and matrices.
    assert_eq!(result.aggregate.monitored_windows, summed_monitored);
    assert_eq!(result.confusion.total(), summed_confusion_total);
    assert!(
        result.aggregate.reduction_factor() > 1.0,
        "the fleet as a whole must still reduce trace volume"
    );
    // The workload plants perturbations, so the fleet must detect some.
    assert!(result.confusion.true_positives > 0);
}

#[test]
fn sharded_reducer_consumes_interleaved_simulations_directly() {
    // The lower-level path the example and benches use: raw simulations,
    // interleaved by timestamp, pushed into the engine without the eval
    // harness.
    let fleet = fleet_experiment(BASE_SEED + 10);
    let monitor = fleet.streams()[0].monitor.clone();
    let simulations: Vec<Simulation> = fleet
        .streams()
        .iter()
        .map(|stream| {
            let registry = stream.scenario.registry().expect("registry");
            Simulation::new(&stream.scenario, &registry).expect("simulation")
        })
        .collect();

    let mut reducer = FleetReducer::new(monitor, FLEET).expect("reducer");
    let mut routed = 0u64;
    for (stream, event) in InterleavedStreams::new(simulations) {
        reducer.push(stream, event).expect("push");
        routed += 1;
    }
    let outcome = reducer.finish().expect("finish");

    assert_eq!(outcome.failed_streams, 0);
    assert!(outcome.worker_panics.is_empty());
    assert_eq!(outcome.events_routed, routed);
    assert!(outcome.aggregate.monitored_windows > 0);
    assert_eq!(outcome.streams.len(), FLEET);
    assert!(outcome.streams.iter().all(|stream| stream.events > 0));
}
