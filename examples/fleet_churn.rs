//! A churning, faulted device fleet scored against injected ground truth.
//!
//! ```text
//! cargo run --release --example fleet_churn              # 100k devices
//! cargo run --release --example fleet_churn -- 5000      # smaller fleet
//! cargo run --release --example fleet_churn -- 5000 7    # ... seed 7
//! ```
//!
//! Drives the discrete-event fleet simulator (`mm_sim::FleetSim`) through
//! the full monitoring stack in one pass:
//!
//! * devices join and leave mid-run (uniform joins over a 20 s window,
//!   0.8–2.4 s lifetimes), clocks skew and drift, streams stall and flush,
//!   events arrive reordered, duplicated or dropped, and two fleet-wide
//!   load spikes hit every live device at once;
//! * the **collector plane** (a `FleetReducer` fed `shard_of` ids)
//!   absorbs the whole fleet trace on a few shards;
//! * the **health plane** (a second `FleetReducer`) holds one session per
//!   stream against a shared curated reference model and scores every
//!   stream's windows against that stream's injected ground truth;
//! * every delivered event is folded into the determinism hash that the
//!   CI gate compares across same-seed runs (`docs/SCENARIOS.md` §4).

use std::error::Error;
use std::time::Instant;

use endurance_eval::ChurnExperiment;
use mm_sim::FaultKind;

fn main() -> Result<(), Box<dyn Error>> {
    let mut args = std::env::args().skip(1);
    let devices: u32 = args
        .next()
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(100_000);
    let seed: u64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(42);

    let experiment = ChurnExperiment::churn_demo(devices, seed)?;
    println!(
        "churn scenario `{}`: {} devices, seed {}, {} collector shard(s), {} health worker(s)",
        experiment.scenario.name, devices, seed, experiment.shards, experiment.workers
    );

    let started = Instant::now();
    let result = experiment.run()?;
    let elapsed = started.elapsed();

    // ── Injected faults (the ground truth eval scored against) ──
    println!();
    println!("injected faults (structural records; per-event faults are counters below):");
    for kind in FaultKind::ALL {
        let count = result.truth.fault_count(kind);
        if count > 0 {
            println!("  {:<16} {count:>10}", kind.to_string());
        }
    }
    let delivery = result.delivery;
    println!(
        "delivery: {} emitted, {} delivered ({} dropped, {} duplicated, {} reordered, \
         {} regressed, {} stalled)",
        delivery.emitted,
        delivery.delivered,
        delivery.dropped,
        delivery.duplicated,
        delivery.reordered,
        delivery.regressed,
        delivery.stalled,
    );

    // ── Collector plane ──
    println!();
    println!(
        "collector plane ({} shards, hash-routed):",
        experiment.shards
    );
    print!("{}", result.collector.aggregate);

    // ── Health plane ──
    println!();
    println!(
        "health plane: {} streams scored against the shared model \
         ({} reference windows), {} session failure(s)",
        result.streams.len(),
        result.model_reference_windows,
        result.failed_streams,
    );
    println!(
        "  fleet confusion: {} TP / {} FP / {} FN / {} TN -> precision {:.3}, recall {:.3}",
        result.confusion.true_positives,
        result.confusion.false_positives,
        result.confusion.false_negatives,
        result.confusion.true_negatives,
        result.confusion.precision(),
        result.confusion.recall(),
    );
    println!(
        "  stream-level: {} / {} truly anomalous streams flagged",
        result.flagged_anomalous_streams(),
        result.anomalous_streams(),
    );

    println!();
    println!(
        "{} events in {:.1} s ({:.0} events/s) -> trace hash {:016x}",
        result.events,
        elapsed.as_secs_f64(),
        result.events as f64 / elapsed.as_secs_f64().max(1e-9),
        result.trace_hash,
    );

    // The determinism contract the CI gate relies on: the hash is a pure
    // function of the scenario seed.
    assert!(result.events > 0, "the fleet delivered nothing");
    // The surfaced delivery stats must agree with the event stream the
    // planes actually consumed.
    assert_eq!(
        delivery.delivered, result.events,
        "ground-truth delivery accounting diverged from the stream"
    );
    Ok(())
}
