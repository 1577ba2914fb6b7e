//! The live serving layer: followers tail a recording lane through a
//! mid-run crash and resume, then a fleet is scored from its followers.
//!
//! ```text
//! cargo run --release --example live_tail            # ~10 simulated minutes/device
//! cargo run --release --example live_tail -- 1200    # 20 simulated minutes/device
//! ```
//!
//! Demonstrates the online read side end to end:
//!
//! 1. **Follow live** — a [`ServeHandle`] serves one store directory;
//!    four subscriptions attach to lane 0 *before its writer exists*,
//!    then a writer records windows while the followers drain them.
//! 2. **Crash & resume** — mid-run the writer is dropped without
//!    `close` and a torn half-frame is appended to the tail segment the
//!    way a killed process leaves one. A new writer resumes the lane
//!    under the same handle; the live subscriptions carry over without
//!    re-delivering or ever observing the torn bytes.
//! 3. **Verify** — every follower's accumulated stream is compared
//!    byte-for-byte against a cold [`Snapshot`] of the closed store,
//!    and the per-follower lag/drop accounting is printed.
//! 4. **Fleet eval** — `MultiStreamExperiment::run_live` records a
//!    2-device fleet through serving-layer lanes with one follower per
//!    lane and recomputes the confusion matrices from what the
//!    followers received; they must match the in-memory run exactly.

use std::error::Error;
use std::io::Write as _;
use std::time::Duration;

use endurance_eval::MultiStreamExperiment;
use endurance_serve::{ServeHandle, SubscribeOptions, Subscription, SubscriptionStep};
use endurance_store::{Snapshot, StoreConfig};
use trace_model::codec::{BinaryEncoder, TraceEncoder};
use trace_model::{EventSink, EventTypeId, RecordMeta, Timestamp, TraceEvent, WindowId};

const FOLLOWERS: usize = 4;

fn window_events(id: u64) -> Vec<TraceEvent> {
    (0..4 + (id % 5))
        .map(|i| {
            TraceEvent::new(
                Timestamp::from_micros(id * 10_000 + i * 250),
                EventTypeId::new(((id + i) % 4) as u16),
                (id * 100 + i) as u32,
            )
        })
        .collect()
}

/// Drains one subscription until it ends, accumulating the delivered
/// window ids and payload bytes.
fn follow(subscription: Subscription) -> (Vec<u64>, Vec<u8>, endurance_serve::SubscriptionStats) {
    let mut ids = Vec::new();
    let mut payload = Vec::new();
    loop {
        match subscription
            .recv(Duration::from_secs(1))
            .expect("follower failed")
        {
            SubscriptionStep::Window(window) => {
                ids.push(window.entry.window_id);
                payload.extend_from_slice(&window.payload);
            }
            SubscriptionStep::TimedOut => continue,
            SubscriptionStep::Ended => return (ids, payload, subscription.stats()),
        }
    }
}

/// Appends raw garbage to the lane's newest segment file, the torn tail
/// an interrupted `write` leaves behind.
fn smear_torn_tail(dir: &std::path::Path) -> Result<(), Box<dyn Error>> {
    let newest = std::fs::read_dir(dir)?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension().is_some_and(|e| e == "seg")).then_some(path)
        })
        .max()
        .expect("the writer created at least one segment");
    let mut file = std::fs::OpenOptions::new().append(true).open(newest)?;
    file.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x42, 0x00, 0x13, 0x37])?;
    file.sync_all()?;
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut args = std::env::args().skip(1);
    let seconds: u64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(600);
    let base = args
        .next()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("live-tail-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&base);

    // ── 1. Subscribe before the writer exists, then record live ──
    let lane_dir = base.join("lane");
    let serve = ServeHandle::open(&lane_dir)?;
    let followers: Vec<_> = (0..FOLLOWERS)
        .map(|_| {
            let subscription = serve.subscribe_with(
                0,
                SubscribeOptions {
                    resume_grace: Duration::from_secs(3),
                    ..SubscribeOptions::default()
                },
            );
            std::thread::spawn(move || follow(subscription))
        })
        .collect();

    let windows = (seconds / 10).max(20);
    println!(
        "recording 2 x {windows} windows to {} with {FOLLOWERS} live followers...",
        lane_dir.display()
    );
    let config = StoreConfig::default().with_segment_max_windows(16);
    let mut writer = serve.create_writer(0, config)?;
    let mut encoder = BinaryEncoder::new();
    let mut record =
        move |writer: &mut endurance_store::LaneWriter, id: u64| -> Result<(), Box<dyn Error>> {
            let events = window_events(id);
            let mut payload = Vec::new();
            encoder.encode(&events, &mut payload)?;
            let meta = RecordMeta {
                window_id: WindowId::new(id),
                start: Timestamp::from_micros(id * 10_000),
                end: Timestamp::from_micros((id + 1) * 10_000),
            };
            writer.record_window(&meta, &events, &payload)?;
            Ok(())
        };
    for id in 0..windows {
        record(&mut writer, id)?;
    }

    // ── 2. Crash mid-run, smear a torn tail, resume the lane ──
    drop(writer); // the process "dies": no close, no final sync
    smear_torn_tail(&lane_dir)?;
    println!("crashed after {windows} windows (torn tail smeared); resuming the lane...");
    let mut writer = serve.create_writer(0, config)?;
    for id in windows..2 * windows {
        record(&mut writer, id)?;
    }
    writer.close()?;

    // ── 3. Verify every follower against a cold snapshot ──
    let snapshot = Snapshot::open(&lane_dir)?;
    let cold = snapshot.lane_payload_bytes(0)?;
    for (index, follower) in followers.into_iter().enumerate() {
        let (ids, payload, stats) = follower.join().expect("follower thread panicked");
        assert_eq!(ids, (0..2 * windows).collect::<Vec<u64>>());
        assert_eq!(
            payload, cold,
            "followed bytes differ from the cold snapshot"
        );
        println!(
            "  follower {index}: delivered {} windows ({} B, {} dropped, ended={}) \
             == cold snapshot",
            stats.delivered,
            payload.len(),
            stats.dropped,
            stats.ended,
        );
    }

    // ── 4. Score a fleet from its live followers ──
    let devices = 2;
    let fleet_seconds = seconds.max(480); // the scaled scenario's floor
    println!(
        "\nscoring a {devices}-device fleet ({fleet_seconds} s/device) from live followers..."
    );
    let fleet = MultiStreamExperiment::scaled(Duration::from_secs(fleet_seconds), 42, devices)?;
    let live = fleet.run()?;
    let followed = fleet.run_live(base.join("fleet"), StoreConfig::default())?;
    assert_eq!(followed.observed.fleet_confusion, live.confusion);
    println!(
        "  followed {} windows / {} events / {} payload B across {} lanes",
        followed.observed.windows,
        followed.observed.events,
        followed.observed.payload_bytes,
        followed.follower_stats.len(),
    );
    println!(
        "  fleet confusion from followers: precision {:.3} recall {:.3} (== in-memory run)",
        followed.observed.fleet_confusion.precision(),
        followed.observed.fleet_confusion.recall(),
    );

    std::fs::remove_dir_all(&base).ok();
    println!("\nlive serving layer verified: exactly-once, torn-tail-free, byte-for-byte.");
    Ok(())
}
