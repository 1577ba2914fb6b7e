//! A fleet-scale durable endurance run: record 4 devices, kill the
//! process mid-run, compact, reopen, replay — then the clean eval path.
//!
//! ```text
//! cargo run --release --example fleet_durable            # ~10 simulated minutes/device
//! cargo run --release --example fleet_durable -- 1200    # 20 simulated minutes/device
//! ```
//!
//! Walks the whole store lifecycle (write → rotate → compact → replay):
//!
//! 1. **Record & crash** — a 4-device fleet records through one store
//!    lane per device on the `FleetReducer`'s workers, each payload
//!    stored as recorded (v1 segments); the writers are dropped without
//!    `close` (no sidecars) and a torn half-frame is appended to one
//!    lane, the way a killed process leaves one.
//! 2. **Compact** — the standalone [`Compactor`] truncates the torn
//!    tail, merges runs of small segments, re-encodes the lanes' v1
//!    segments into delta-varint frames — the one place a lane is
//!    compressed — and rewrites the sidecars atomically, reporting the
//!    reclaimed bytes.
//! 3. **Reopen & replay** — the compacted store reopens *clean*, every
//!    lane replays exactly the events each device recorded before the
//!    crash, and a windowed range query seeks via the rebuilt index.
//! 4. **Fleet eval** — `MultiStreamExperiment::run_durable`
//!    runs the same fleet cleanly end to end: per-lane recording,
//!    post-close compaction and compression, cold reopen, and per-stream
//!    confusion recomputed from what is actually on disk.

use std::error::Error;
use std::time::Duration;

use endurance_core::FleetReducer;
use endurance_eval::MultiStreamExperiment;
use endurance_store::{
    CodecId, Compactor, MaintenancePolicy, StoreConfig, StoreReader, StoreWriter,
};
use mm_sim::Simulation;
use trace_model::{EventSource, InterleavedStreams, StreamId, Timestamp};

const DEVICES: usize = 4;

/// Every lane's store config: small segments so rotation (and therefore
/// compaction) has work.
fn store() -> StoreConfig {
    StoreConfig::default().with_segment_max_bytes(64 * 1024)
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut args = std::env::args().skip(1);
    let seconds: u64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(600);
    let base = args
        .next()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("fleet-durable-{}", std::process::id()))
        });
    let _ = std::fs::remove_dir_all(&base);

    let fleet = MultiStreamExperiment::scaled(Duration::from_secs(seconds), 42, DEVICES)?;

    // ── 1. Record the fleet, then "die" before any close ──
    let crash_dir = base.join("crash");
    println!(
        "recording {DEVICES} devices x {seconds} s of simulated endurance to {}...",
        crash_dir.display()
    );
    let simulations = fleet
        .streams()
        .iter()
        .map(|stream| {
            let registry = stream.scenario.registry()?;
            Simulation::new(&stream.scenario, &registry)
        })
        .collect::<Result<Vec<_>, _>>()?;
    // The directory is opened for writing once; every device's lane comes
    // from that handle, so a new lane costs no listing of its neighbours
    // (`LaneWriter::create` would list the whole directory per device).
    let crash_store = StoreWriter::open(&crash_dir)?;
    let mut reducer = FleetReducer::new(fleet.streams()[0].monitor.clone(), DEVICES)?.with_sinks(
        move |device: StreamId| {
            crash_store
                .lane(device.as_u32(), store())
                .expect("a fresh directory accepts every lane")
        },
    );
    for (device, event) in InterleavedStreams::new(simulations) {
        reducer.push(device, event)?;
    }
    let outcome = reducer.finish()?;
    let mut live_recorded = [0u64; DEVICES];
    for device in outcome.streams {
        let report = device.report.expect("all devices complete");
        live_recorded[device.stream.index()] = report.recorder.events_recorded;
        println!(
            "  {}: {} events, {} recorded windows, {:.1}x reduction",
            device.stream,
            device.events,
            report.anomalous_windows,
            report.reduction_factor()
        );
        drop(device.sink); // crash: no close(), no sidecar
    }
    println!("  aggregate: {}", outcome.aggregate);

    // A torn half-frame at the tail of lane 0, as an interrupted write
    // leaves one.
    let torn_path = last_segment(&crash_dir, 0)?;
    let mut bytes = std::fs::read(&torn_path)?;
    bytes.extend_from_slice(&[0x55; 11]);
    std::fs::write(&torn_path, bytes)?;
    println!(
        "crashed before close; torn tail appended to {}",
        torn_path.display()
    );

    // ── 2. Compact the crashed store (merge + compress every lane) ──
    let policy = MaintenancePolicy::merge_below(u64::MAX).with_recompress(CodecId::DeltaVarint);
    let report = Compactor::new(&crash_dir, policy).compact()?;
    println!();
    println!("{report}");
    assert!(
        report.recompressed_windows() > 0,
        "the writers wrote v1 segments; the pass must re-encode them"
    );

    // ── 3. Reopen and replay ──
    let reader = StoreReader::open(&crash_dir)?;
    let recovery = reader.recovery();
    println!(
        "reopened after crash + compaction: clean={}, {} windows / {} events across {} lanes",
        recovery.clean,
        recovery.windows,
        recovery.events,
        reader.lane_count(),
    );
    assert!(recovery.clean, "compaction rewrote the sidecars");
    for lane in reader.lane_ids() {
        let mut replay = reader.replay_lane(lane)?;
        let mut events = Vec::new();
        replay.fill(&mut events, usize::MAX);
        assert!(replay.error().is_none());
        assert_eq!(
            events.len() as u64,
            live_recorded[lane as usize],
            "every completed frame survives the crash"
        );
        println!(
            "  lane {lane}: replayed {} events in recording order",
            events.len()
        );
    }
    // A windowed range query via the rebuilt index.
    if let Some(entry) = reader
        .lane_windows(0)
        .ok()
        .and_then(|windows| windows.last())
    {
        let ranged = reader.windows_in_range(
            0,
            Timestamp::from_nanos(entry.start_ns),
            Timestamp::from_nanos(entry.end_ns),
        )?;
        println!(
            "  windowed replay: [{} ns, {} ns) -> {} window(s) via the index",
            entry.start_ns,
            entry.end_ns,
            ranged.len()
        );
    }

    // ── 4. The clean fleet eval path ──
    let eval_dir = base.join("eval");
    println!();
    println!(
        "running the durable fleet eval (record, close, compact and compress, cold reopen)..."
    );
    let durable = fleet.run_durable(&eval_dir, store(), Some(policy))?;
    let compaction = durable.compaction.as_ref().expect("compaction ran");
    println!(
        "cold reopen: clean={}, {} windows / {} events; {} payload bytes stored as {} \
         ({:.2}x); compaction reclaimed {} bytes over {} merged run(s), {} window(s) \
         re-encoded",
        durable.recovery.clean,
        durable.observed.windows,
        durable.observed.events,
        durable.observed.payload_bytes,
        durable.stored_bytes,
        durable.compression_ratio().unwrap_or(1.0),
        compaction.reclaimed_bytes(),
        compaction.merged_runs(),
        compaction.recompressed_windows(),
    );
    for (stream, confusion) in durable.observed.confusion.iter().enumerate() {
        println!(
            "  device {stream}: precision {:.3}, recall {:.3} (recomputed from disk)",
            confusion.precision(),
            confusion.recall()
        );
    }
    println!(
        "fleet reduction held across the store: {:.1}x aggregate",
        durable.result.aggregate.reduction_factor()
    );

    std::fs::remove_dir_all(&base).ok();
    Ok(())
}

/// Path of the highest-numbered segment file of `lane` in `dir`.
fn last_segment(dir: &std::path::Path, lane: u32) -> Result<std::path::PathBuf, Box<dyn Error>> {
    let prefix = format!("lane{lane:04}-");
    let mut segments: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            (name.starts_with(&prefix) && name.ends_with(".seg")).then(|| path.clone())
        })
        .collect();
    segments.sort();
    segments
        .pop()
        .ok_or_else(|| "no segment files written".into())
}
