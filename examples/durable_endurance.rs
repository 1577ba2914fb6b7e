//! A durable endurance run: record to disk, crash, reopen, replay.
//!
//! ```text
//! cargo run --release --example durable_endurance            # ~10 simulated minutes
//! cargo run --release --example durable_endurance -- 1200    # 20 simulated minutes
//! ```
//!
//! Demonstrates the persistence subsystem end to end:
//!
//! 1. **Record** — the paper's experiment runs as a one-stream fleet,
//!    recording through an `endurance-store` lane on the thread that
//!    runs its session and closing cleanly, twice: as recorded, and
//!    compressed afterwards by a maintenance pass that re-encodes the
//!    closed lane into the delta-varint frame codec. The volume metrics
//!    are recomputed from a cold reopen of each store
//!    (`MultiStreamExperiment::run_durable`): identical replayed
//!    payloads, different bytes on the device.
//! 2. **Crash** — the same run is recorded again, but this time the
//!    process "dies": the writer is dropped without `close`, and a torn
//!    half-frame is appended to the tail segment the way an interrupted
//!    `write` leaves one.
//! 3. **Reopen & replay** — the store recovers every complete window,
//!    reports the torn tail, and replays the reduced trace — in full via
//!    [`trace_model::EventSource`] and window-by-window via the index.

use std::error::Error;
use std::time::Duration;

use endurance_core::{ReductionSession, WindowDecision};
use endurance_eval::{Experiment, MultiStreamExperiment};
use endurance_store::{CodecId, LaneWriter, MaintenancePolicy, StoreConfig, StoreReader};
use mm_sim::Simulation;
use trace_model::EventSource;

fn main() -> Result<(), Box<dyn Error>> {
    let mut args = std::env::args().skip(1);
    let seconds: u64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(600);
    let base = args
        .next()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("durable-endurance-{}", std::process::id()))
        });
    let _ = std::fs::remove_dir_all(&base);

    let experiment = Experiment::scaled(Duration::from_secs(seconds), 42)?;

    // ── 1. Record with a clean close; then again, compressed after it ──
    println!(
        "recording {seconds} s of simulated endurance under {}, as recorded and \
         compressed after the close...",
        base.display()
    );
    let device = MultiStreamExperiment::new(vec![experiment.clone()])?;
    let mut durable = None;
    for codec in [CodecId::Identity, CodecId::DeltaVarint] {
        let dir = base.join(format!("clean-{}", codec.name()));
        let recompress = (codec != CodecId::Identity)
            .then(|| MaintenancePolicy::disabled().with_recompress(codec));
        let run = device.run_durable(&dir, StoreConfig::default(), recompress)?;
        assert!(run.recovery.clean);
        println!(
            "  {:>12}: {} windows / {} events; payload {} B stored as {} B ({:.2}x)",
            codec.name(),
            run.observed.windows,
            run.observed.events,
            run.observed.payload_bytes,
            run.stored_bytes,
            run.compression_ratio().unwrap_or(1.0),
        );
        durable.get_or_insert(run);
    }
    let durable = durable.expect("the plain run ran");
    let report = durable.result.aggregate;
    println!("{report}");
    println!(
        "every reopened store replays the same {} encoded payload bytes \
         (matches the live recorder exactly)",
        durable.observed.payload_bytes,
    );

    // ── 2. The same run, killed before close ──
    let crash_dir = base.join("crash");
    println!();
    println!("recording again, then crashing before close...");
    let registry = experiment.scenario.registry()?;
    let mut simulation = Simulation::new(&experiment.scenario, &registry)?;
    let writer = LaneWriter::create(&crash_dir, 0, StoreConfig::default())?;
    let mut session = ReductionSession::new(experiment.monitor.clone())?
        .with_sink(writer)
        .with_observer(Vec::<WindowDecision>::new());
    session.push_source(&mut simulation)?;
    let outcome = session.finish()?;
    let live_recorded = outcome.report.recorder.events_recorded;
    drop(outcome.sink); // no close(): the sidecar index is never written

    // A torn half-frame at the tail, as an interrupted write leaves one.
    let torn_path = last_segment(&crash_dir)?;
    let mut bytes = std::fs::read(&torn_path)?;
    bytes.extend_from_slice(&[0x55; 11]); // garbage "frame header + partial body"
    std::fs::write(&torn_path, bytes)?;

    // ── 3. Reopen, recover, replay ──
    let reader = StoreReader::open(&crash_dir)?;
    let recovery = reader.recovery();
    println!(
        "reopened after crash: clean={}, recovered {} windows / {} events, {} torn tail(s)",
        recovery.clean,
        recovery.windows,
        recovery.events,
        recovery.torn_tails.len(),
    );
    for tail in &recovery.torn_tails {
        println!(
            "  torn tail in lane {} segment {}: {} byte(s) dropped at offset {}",
            tail.lane, tail.segment, tail.dropped_bytes, tail.offset
        );
    }
    assert_eq!(
        recovery.events, live_recorded,
        "every completed frame survives the crash"
    );

    // Full replay through the EventSource trait.
    let mut replay = reader.replay_lane(0)?;
    let mut replayed = Vec::new();
    replay.fill(&mut replayed, usize::MAX);
    assert!(replay.error().is_none());
    assert_eq!(replayed.len() as u64, live_recorded);
    println!("full replay: {} events, in recording order", replayed.len());

    // Windowed replay: seek straight to the last recorded window.
    if let Some(entry) = reader
        .lane_windows(0)
        .ok()
        .and_then(|windows| windows.last())
    {
        let events = reader
            .window_events(0, trace_model::WindowId::new(entry.window_id))?
            .expect("indexed window");
        println!(
            "windowed replay: window#{} -> {} events in [{} ns, {} ns) via one seek",
            entry.window_id,
            events.len(),
            entry.start_ns,
            entry.end_ns
        );
    }

    println!();
    println!(
        "reduction held across the crash: {:.1}x ({} of {} bytes recorded)",
        report.reduction_factor(),
        report.recorder.recorded_raw_bytes,
        report.recorder.total_raw_bytes,
    );
    std::fs::remove_dir_all(&base).ok();
    Ok(())
}

/// Path of the highest-numbered segment file in `dir`.
fn last_segment(dir: &std::path::Path) -> Result<std::path::PathBuf, Box<dyn Error>> {
    let mut segments: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension()? == "seg").then_some(path)
        })
        .collect();
    segments.sort();
    segments
        .pop()
        .ok_or_else(|| "no segment files written".into())
}
