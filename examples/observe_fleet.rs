//! A live, fully observed fleet: record, follow and watch the metrics.
//!
//! ```text
//! cargo run --release --example observe_fleet             # 20k devices
//! cargo run --release --example observe_fleet -- 5000     # smaller fleet
//! cargo run --release --example observe_fleet -- 5000 7   # ... seed 7
//! ```
//!
//! One `endurance_obs::Registry` is threaded through every layer at once:
//!
//! * the **fleet simulator** exports its event-queue depth and delivery
//!   count (`sim_fleet_*`);
//! * the **collector plane** (a `FleetReducer` fed `shard_of` ids)
//!   exports its channel and session counters (`core_fleet_*`,
//!   `core_session_*`);
//! * the **store lanes** each shard's worker appends to export frame and
//!   byte counters (`store_*`);
//! * the **serving layer** exports per-lane delivery counters and
//!   watermark-lag gauges for the tail followers (`serve_*`);
//!
//! while a `MetricsHub` reporter thread prints a Prometheus-style delta
//! exposition every 500 ms — the "observer pays" contract: the hot paths
//! only bump atomics, the reporter does all the rendering.
//!
//! The run ends with cross-layer conservation checks: windows recorded by
//! the shard reports == frames written to disk == windows each follower
//! received == windows a cold snapshot reads back, and the segment-cache
//! hit/miss and CRC counters match the cold read's actual load pattern.

use std::collections::BTreeSet;
use std::error::Error;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use endurance_core::{shard_of, FleetReducer, MonitorConfig};
use endurance_obs::{MetricsHub, Registry};
use endurance_serve::{ServeHandle, SubscribeOptions, SubscriptionStats, SubscriptionStep};
use endurance_store::StoreConfig;
use mm_sim::{FleetEvent, FleetScenario, FleetSim};
use trace_model::StreamId;

/// Collector shards = store lanes = tail followers.
const SHARDS: usize = 4;

/// Collector-shard learning segment (mixed-stream reference).
const LEARN_REFERENCE: Duration = Duration::from_secs(3);

/// What one lane's follower accumulated by the time its lane ended.
struct Followed {
    windows: u64,
    events: u64,
    stats: SubscriptionStats,
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut args = std::env::args().skip(1);
    let devices: u32 = args
        .next()
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(20_000);
    let seed: u64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(42);

    let dir = std::env::temp_dir().join(format!("endurance-observe-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let scenario = FleetScenario::churn_demo(devices, seed)?;
    let registry = Registry::new();

    println!(
        "observing scenario `{}`: {} devices, seed {seed}, {SHARDS} shard(s)/lane(s)",
        scenario.name, devices
    );
    println!("-- reporter ticks (500 ms deltas) --");

    // The reporter thread renders deltas of *everything below* while the
    // run is in flight; stopping it flushes one final tick.
    let hub = MetricsHub::new(Arc::clone(&registry));
    let reporter = hub.spawn_reporter(Duration::from_millis(500), std::io::stdout());

    // Serving layer: followers subscribe *before* the writers exist, so
    // each lane is followed from its first committed window.
    let serve = ServeHandle::open(&dir)?.with_metrics(Arc::clone(&registry));
    let followers: Vec<std::thread::JoinHandle<Result<Followed, String>>> = (0..SHARDS)
        .map(|lane| {
            let subscription = serve.subscribe_with(
                lane as u32,
                SubscribeOptions {
                    // Every window must arrive (`dropped == 0` below).
                    buffer: usize::MAX,
                    ..SubscribeOptions::default()
                },
            );
            std::thread::spawn(move || {
                let mut windows = 0u64;
                let mut events = 0u64;
                loop {
                    match subscription
                        .recv(Duration::from_secs(1))
                        .map_err(|error| error.to_string())?
                    {
                        SubscriptionStep::Window(window) => {
                            windows += 1;
                            events += u64::from(window.entry.events);
                        }
                        SubscriptionStep::TimedOut => continue,
                        SubscriptionStep::Ended => {
                            let stats = subscription.stats();
                            return Ok(Followed {
                                windows,
                                events,
                                stats,
                            });
                        }
                    }
                }
            })
        })
        .collect();

    // Collector plane: a few shards absorb the whole fleet trace, each
    // recording its reduced windows through a serve-lane writer.
    // The lanes are opened up front (every follower needs its writer to
    // exist) and handed to the shard sessions as they open. They come
    // from the directory's one write handle inside `serve`, opened by the
    // first `create_writer`: new lanes cost one directory listing in all.
    let monitor = MonitorConfig::builder()
        .dimensions(scenario.registry()?.len())
        .reference_duration(LEARN_REFERENCE)
        .build()?;
    let mut lanes = Vec::with_capacity(SHARDS);
    for lane in 0..SHARDS as u32 {
        lanes.push(Some(serve.create_writer(lane, StoreConfig::default())?));
    }
    let lanes = Mutex::new(lanes);
    let mut collector = FleetReducer::new(monitor, SHARDS)?
        .with_sinks(move |shard: StreamId| {
            lanes.lock().expect("lane bank")[shard.index()]
                .take()
                .expect("a shard is never closed, so it opens one session")
        })
        .with_metrics(Arc::clone(&registry));

    let started = Instant::now();
    let mut sim = FleetSim::new(&scenario)?.with_metrics(&registry);
    for fleet_event in sim.by_ref() {
        match fleet_event {
            FleetEvent::Delivery(stream, event) => {
                collector.push(shard_of(stream, SHARDS), event)?;
            }
            FleetEvent::StreamClosed(_) => {} // a shard outlives its streams
        }
    }
    let deliveries = sim.deliveries();

    let outcome = collector.finish()?;
    if let Some(panic) = outcome.worker_panics.first() {
        return Err(panic.to_string().into());
    }
    if outcome.streams.len() != SHARDS {
        return Err(format!(
            "only {} of {SHARDS} shards saw events",
            outcome.streams.len()
        )
        .into());
    }
    // Close each lane; closing publishes the final watermark, which ends
    // the lane's subscription after the grace.
    let mut recorded_windows = 0u64;
    for shard in outcome.streams {
        let (Some(report), Some(sink)) = (shard.report, shard.sink) else {
            let error = shard.error.as_deref().unwrap_or("unknown");
            return Err(format!("shard {} failed: {error}", shard.stream).into());
        };
        recorded_windows += report.recorder.windows_recorded;
        sink.close()?;
    }
    let followed = followers
        .into_iter()
        .enumerate()
        .map(|(lane, handle)| {
            handle
                .join()
                .map_err(|_| format!("lane {lane}: follower panicked"))?
                .map_err(|error| format!("lane {lane}: follower failed: {error}"))
        })
        .collect::<Result<Vec<Followed>, String>>()?;
    let elapsed = started.elapsed();

    // Cold verification read through the instrumented segment pool: one
    // load per segment, one CRC validation per frame.
    let snapshot = serve.refresh()?;
    let mut disk_windows = 0u64;
    let mut segments: BTreeSet<(u32, u32)> = BTreeSet::new();
    for lane in 0..SHARDS as u32 {
        let entries = snapshot.lane_windows(lane)?;
        disk_windows += entries.len() as u64;
        for entry in entries {
            segments.insert((lane, entry.segment));
        }
        snapshot.lane_payload_bytes(lane)?;
    }

    reporter.stop();
    println!("-- end of reporter ticks --");

    // ── Cross-layer conservation ──
    let snap = registry.snapshot();
    let followed_windows: u64 = followed.iter().map(|f| f.windows).sum();
    let followed_events: u64 = followed.iter().map(|f| f.events).sum();
    for (lane, lane_followed) in followed.iter().enumerate() {
        assert_eq!(
            lane_followed.stats.dropped, 0,
            "lane {lane}: follower dropped windows; conservation needs exactly-once"
        );
        assert!(lane_followed.stats.ended);
    }

    // The simulator, router and channel counters all saw every delivery.
    assert_eq!(snap.counter_total("sim_fleet_events_total"), deliveries);
    assert_eq!(snap.counter_total("core_fleet_events_total"), deliveries);
    assert_eq!(snap.gauge_total("core_fleet_queue_depth"), 0);

    // Windows recorded by the shard reports == frames written to disk ==
    // windows every follower received == windows a cold snapshot holds.
    assert_eq!(
        snap.counter_total("store_frames_written_total"),
        recorded_windows
    );
    assert_eq!(recorded_windows, followed_windows);
    assert_eq!(recorded_windows, disk_windows);
    assert_eq!(
        snap.counter_total("serve_windows_delivered_total"),
        followed_windows
    );
    assert_eq!(snap.counter_total("serve_windows_dropped_total"), 0);
    assert_eq!(snap.gauge_total("serve_watermark_lag"), 0);

    // Every lane was new: the directory was listed once, when the serving
    // handle opened it for writing, and never again per lane.
    assert_eq!(snap.counter_total("store_dir_listings_total"), 1);

    // The cold read's cache behaviour: one miss per distinct segment (the
    // pool was cold), no hits, one CRC validation per frame on disk.
    assert_eq!(
        snap.counter_total("store_segcache_misses_total"),
        segments.len() as u64
    );
    assert_eq!(snap.counter_total("store_segcache_hits_total"), 0);
    assert_eq!(
        snap.counter_total("store_crc_validations_total"),
        disk_windows
    );

    println!();
    println!(
        "{deliveries} deliveries -> {recorded_windows} recorded windows \
         ({followed_events} followed events) across {} segment(s) in {:.1} s",
        segments.len(),
        elapsed.as_secs_f64(),
    );
    println!(
        "conservation holds: shard reports == store frames == follower deliveries \
         == cold snapshot ({recorded_windows} windows)"
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
