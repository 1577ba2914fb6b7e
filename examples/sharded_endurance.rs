//! A multi-stream endurance run through the fleet reduction engine.
//!
//! ```text
//! cargo run --release --example sharded_endurance              # 4 devices, ~10 simulated minutes
//! cargo run --release --example sharded_endurance -- 1200 8    # 8 devices, 20 simulated minutes
//! ```
//!
//! This is the fleet-scale deployment shape: one endurance rig drives `N`
//! devices under test, each emitting its own trace stream. The example
//!
//! * simulates `N` independent workloads (same shape, different seeds),
//! * funnels them through one [`FleetReducer`] — events are tagged with
//!   their [`trace_model::StreamId`] and routed to one `ReductionSession`
//!   per device, on worker threads behind bounded channels,
//! * and prints the aggregate report plus each device's reduction and
//!   detection quality against its own ground truth.
//!
//! With one session per device the recorded trace of every device is
//! byte-for-byte what a standalone single-device session would have
//! recorded — the engine changes the throughput, not the output.

use std::error::Error;
use std::time::Duration;

use endurance_core::FleetReducer;
use endurance_eval::MultiStreamExperiment;
use mm_sim::Simulation;
use trace_model::{EventSink, InterleavedStreams};

fn main() -> Result<(), Box<dyn Error>> {
    let mut args = std::env::args().skip(1);
    let seconds: u64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(600);
    let devices: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(4);

    println!("simulating {devices} devices x {seconds} s of endurance workload...");
    let fleet = MultiStreamExperiment::scaled(Duration::from_secs(seconds), 42, devices)?;
    let result = fleet.run()?;

    println!();
    println!("aggregate: {}", result.aggregate);
    println!();
    for stream in &result.streams {
        println!(
            "{}: {:.1}x reduction, precision {:.3}, recall {:.3} over {} windows",
            stream.stream,
            stream.report.reduction_factor(),
            stream.confusion.precision(),
            stream.confusion.recall(),
            stream.confusion.total(),
        );
    }
    println!(
        "fleet: precision {:.3}, recall {:.3}, {:.1}x aggregate reduction",
        result.confusion.precision(),
        result.confusion.recall(),
        result.aggregate.reduction_factor()
    );

    // The same fleet again, driven through the low-level engine API — the
    // shape a real rig uses when there is no simulator: tagged events
    // pushed as they arrive, per-device sinks handed back at the end.
    let simulations: Vec<Simulation> = fleet
        .streams()
        .iter()
        .map(|stream| {
            let registry = stream.scenario.registry()?;
            Ok(Simulation::new(&stream.scenario, &registry)?)
        })
        .collect::<Result<_, Box<dyn Error>>>()?;
    let monitor = fleet.streams()[0].monitor.clone();
    let mut fleet = FleetReducer::new(monitor, devices)?;
    for (device, event) in InterleavedStreams::new(simulations) {
        fleet.push(device, event)?;
    }
    let outcome = fleet.finish()?;
    let recorded: usize = outcome
        .streams
        .iter()
        .filter_map(|stream| stream.sink.as_ref())
        .map(EventSink::recorded_events)
        .sum();
    println!();
    println!(
        "low-level pass: routed {} events, {recorded} recorded across {} per-device sinks",
        outcome.events_routed,
        outcome.streams.len()
    );
    assert_eq!(outcome.aggregate, result.aggregate);
    Ok(())
}
