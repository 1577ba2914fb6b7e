//! CI benchmark smoke gate: measures session and sharded reduction
//! throughput in quick mode, writes a `BENCH_session.json` artifact, and
//! fails when throughput regresses more than 30 % against a checked-in
//! baseline.
//!
//! ```text
//! bench_smoke [--quick] [--out PATH] [--baseline PATH]
//! ```
//!
//! * `--quick` shrinks the workload for CI (the gate thresholds do not
//!   change: throughput is normalised to events per second).
//! * `--out` is where the measurement artifact is written
//!   (default `BENCH_session.json`).
//! * `--baseline` points at the reference JSON
//!   (`crates/bench/baselines/bench_session_baseline.json` in CI); when
//!   omitted, no regression gate is applied (measurement-only mode).
//!
//! The gates:
//!
//! 1. **Regression**: every measured configuration must reach at least
//!    70 % of its baseline `reference_events_per_sec`.
//! 2. **Sharded speedup**: with ≥ 4 hardware threads available, the
//!    4-shard configuration must sustain ≥ 2× the single-threaded
//!    session rate on the same multi-stream reduction
//!    (`serial_4_sessions`: one `ReductionSession` per device, routed
//!    inline on one thread — the only single-threaded implementation
//!    with the same per-device windows and recorded traces). On smaller
//!    hosts the check is reported but skipped — a bounded channel cannot
//!    conjure cores.
//! 3. **Compression ratio**: a maintenance pass re-encoding the v1
//!    store of the mm-sim endurance workload into the `DeltaVarint` frame
//!    codec (`store_compact_recompress`) must shrink its payload bytes by
//!    at least 1.5x — the one place a lane is compressed.
//! 4. **Live followers**: the same recording loop through a
//!    serving handle with four tail subscriptions draining the commit
//!    stream (`store_live_mixed`) may cost the writer at most 10 % vs
//!    running solo (`store_live_solo`) — live reads must ride the
//!    watermarks, not tax the writer. Like the speedup gate, this needs
//!    spare cores for the followers to run on: on hosts with fewer
//!    hardware threads than followers-plus-writer the ratio is reported
//!    but the gate is skipped.
//! 5. **Instrumentation overhead**: `session_push_instrumented` — the
//!    same single-session loop with a live `endurance_obs::Registry`
//!    attached — must stay within 3 % of the disabled-registry
//!    `session_push` rate. This is the "cheap enough to leave on"
//!    contract from `docs/OBSERVABILITY.md`, gated here so a regression
//!    in the instrumentation layer fails the PR that introduced it. The
//!    two loops' reps are interleaved and the gate compares their
//!    medians (`instrumented_ratio`): best-of-reps of two back-to-back
//!    blocks differ by more than 3 % on a shared host whatever the code.
//!    Armed on full runs only — a `--quick` rep lasts milliseconds and
//!    cannot resolve 3 %; quick runs report the ratio.
//! 6. **CRC kernel**: the slice-by-8 `crc32` (`crc32_frame`) must beat
//!    the bit-at-a-time reference (`crc32_frame_scalar`) by ≥ 3× on
//!    frame-sized payloads — every frame append and recovery scan pays
//!    this kernel.
//! 7. **Parallel compaction**: the auto-sized multi-lane maintenance
//!    pass (`store_compact`) must beat the single-worker pass
//!    (`store_compact_serial`) by ≥ 1.5× on hosts with a core per lane;
//!    smaller hosts report the ratio but skip the gate.
//!
//! The artifact also records `store_compact` (a maintenance pass merging
//! four many-segment lanes on the auto-sized worker pool, its resolved
//! worker count in `compaction_workers`), per-store-config on-disk bytes
//! and compression ratios, the live-follower overhead ratio, and, when a
//! baseline is given, the per-config deltas vs the reference. Since
//! schema 5, instrumented configurations additionally embed the
//! `endurance_obs::MetricsSnapshot` captured over their measured reps
//! (`metrics`), so a perf regression arrives with its counter context —
//! cache hit rates, CRC validations, compaction passes — attached.
//! Schema 6 adds the CRC and parallel-compaction configurations and
//! speedups. Schema 7 adds `repro_minimize` — the ddmin
//! trace-minimization loop from `endurance-repro`, shrinking a
//! synthetic five-window extraction to a 1-minimal repro with a fresh
//! detector re-run per oracle call — so a slowdown in the
//! extract-and-minimize path fails the PR that caused it. Schema 8 adds
//! `lof_score_duplicated` and `lof_fit_duplicated` — scoring against and
//! fitting a 3 000 × 14 reference model that holds 12 distinct points,
//! the shape periodic traces produce and the duplicate-collapsing k-NN
//! index exists for (rates are scores and reference points per second).
//! Schema 9 adds `store_compact_many_lanes` and
//! `store_lane_create_crowded` — a maintenance pass over, and one more
//! lane created next to, 512 one-segment lanes in one directory, the
//! shape whose per-lane cost must not grow with the lane count — and
//! `instrumented_ratio`. Schema 10 drops `session_spooled` and
//! `store_replay_seek` (and `replay_speedup_buffered`) with the spooled
//! sink and the seek-per-frame reader they measured;
//! `store_replay_buffered` keeps its baseline floor. Schema 11 drops
//! `store_codec_identity`, `store_codec_delta_varint` and
//! `store_codec_lz_block` (and `delta_codec_ratio`) with the writer's
//! frame codec: a writer stores payloads as recorded, and
//! `store_compact_recompress` keeps its ratio floor.
//!
//! The artifact also records `session_push` — one session over the merged
//! untagged feed. That configuration does per-*fleet* windows (4× fewer
//! windows than per-device reduction), so it is faster per event but does
//! not produce per-device traces; it is context, not the speedup
//! baseline.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use endurance_bench::{duplicated_queries, duplicated_reference_points, write_replay_store};
use endurance_core::{FleetReducer, MonitorConfig, ReductionSession, ReferenceModel};
use endurance_obs::{MetricsSnapshot, Registry};
use endurance_repro::{minimize, MinimizeConfig, ReproArtifact};
use endurance_serve::{ServeHandle, SubscribeOptions, SubscriptionStep};
use endurance_store::{
    crc32, crc32_scalar, CodecId, Compactor, LaneWriter, MaintenancePolicy, StoreConfig,
    StoreReader,
};
use lof_anomaly::{LofConfig, LofModel};
use mm_sim::{Scenario, Simulation};
use trace_model::codec::{BinaryEncoder, TraceEncoder};
use trace_model::{
    CountingSink, EventSink, EventTypeId, InterleavedStreams, MemorySource, RecordMeta, StreamId,
    Timestamp, TraceEvent, Window, WindowId,
};

const DEVICES: u32 = 4;
const SHARD_CONFIGS: [usize; 3] = [1, 2, 4];
const REGRESSION_TOLERANCE: f64 = 0.30;
const REQUIRED_SPEEDUP: f64 = 2.0;
const MIN_PARALLELISM_FOR_SPEEDUP_GATE: usize = 4;
/// Recompressing the mm-sim endurance workload into the `DeltaVarint`
/// frame codec must shrink its payload bytes by at least this factor
/// (the paper's actual metric: bytes on the device).
const REQUIRED_DELTA_RATIO: f64 = 1.5;
/// Live tail followers may cost the writer at most this fraction of its
/// solo rate (the serving-layer acceptance bar).
const LIVE_FOLLOW_TOLERANCE: f64 = 0.10;
/// Followers racing the writer in the `store_live_mixed` configuration.
const LIVE_FOLLOWERS: usize = 4;
/// An enabled metrics registry may cost the session push loop at most
/// this fraction of the disabled-registry rate (the observability
/// acceptance bar: cheap enough to leave on).
const INSTRUMENTED_TOLERANCE: f64 = 0.03;
/// Alternating `session_push` / `session_push_instrumented` reps the
/// overhead gate takes its medians over (odd, so the median is a rep).
const INSTRUMENTED_PAIRS: usize = 15;
/// The slice-by-8 CRC kernel must beat the bit-at-a-time reference by at
/// least this factor on frame-sized payloads.
const REQUIRED_CRC_SPEEDUP: f64 = 3.0;
/// Lanes in the multi-lane compaction workload (one writer shard each).
const COMPACT_LANES: u32 = 4;
/// The auto-sized parallel compaction pass must beat the single-worker
/// pass by at least this factor on hosts with a core per lane.
const REQUIRED_COMPACT_SPEEDUP: f64 = 1.5;
/// One-segment lanes in the crowded-directory configurations.
const CROWDED_LANES: u32 = 512;
/// Frame-body size the CRC kernel is benchmarked over (a typical
/// recorded-window payload).
const CRC_FRAME_BYTES: usize = 4096;

#[derive(Debug, Serialize, Deserialize)]
struct Measurement {
    name: String,
    events: u64,
    events_per_sec: f64,
    /// Committed segment bytes on disk, for store-backed configs.
    bytes_on_disk: Option<u64>,
    /// Raw payload bytes over stored bytes, for store-backed configs.
    compression_ratio: Option<f64>,
    /// Registry snapshot accumulated over every measured rep, for
    /// instrumented configs (schema 5): the counter context a perf
    /// regression should arrive with. `None` for pure-CPU configs that
    /// run with the registry disabled.
    #[serde(default)]
    metrics: Option<MetricsSnapshot>,
}

impl Measurement {
    fn rate(name: &str, events: u64, events_per_sec: f64) -> Self {
        Measurement {
            name: name.to_string(),
            events,
            events_per_sec,
            bytes_on_disk: None,
            compression_ratio: None,
            metrics: None,
        }
    }

    fn with_snapshot(mut self, snapshot: MetricsSnapshot) -> Self {
        self.metrics = Some(snapshot);
        self
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct Delta {
    name: String,
    pct_vs_reference: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Artifact {
    schema: u32,
    quick: bool,
    parallelism: usize,
    /// Worker threads the multi-lane `store_compact` pass resolved to
    /// (`min(lanes, parallelism)` under the auto policy default).
    compaction_workers: usize,
    configs: Vec<Measurement>,
    speedup_4_shards: f64,
    /// `crc32_frame` over `crc32_frame_scalar`: the slice-by-8 kernel's
    /// speedup vs the bit-at-a-time reference (gated at >= 3x).
    crc32_speedup: f64,
    /// `store_compact` (auto workers) over `store_compact_serial` (one
    /// worker) on the same multi-lane store (gated at >= 1.5x on hosts
    /// with a core per lane).
    compact_parallel_speedup: f64,
    /// Payload-over-stored ratio after re-encoding a v1 store in place
    /// (gated at >= 1.5).
    recompress_ratio: f64,
    /// `store_live_mixed` over `store_live_solo`: the writer's rate with
    /// four live followers as a fraction of its solo rate (gated at
    /// >= 1 - `LIVE_FOLLOW_TOLERANCE`).
    live_follow_ratio: f64,
    /// Median `session_push_instrumented` rate over median `session_push`
    /// rate, reps interleaved (gated at >= 1 - `INSTRUMENTED_TOLERANCE`).
    instrumented_ratio: f64,
    /// Per-config deltas vs the baseline reference, when one was given.
    deltas: Vec<Delta>,
}

#[derive(Debug, Serialize, Deserialize)]
struct BaselineEntry {
    name: String,
    reference_events_per_sec: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Baseline {
    schema: u32,
    note: String,
    configs: Vec<BaselineEntry>,
}

struct Options {
    quick: bool,
    out: String,
    baseline: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        quick: false,
        out: "BENCH_session.json".to_string(),
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--out" => {
                options.out = args.next().ok_or("--out needs a path")?;
            }
            "--baseline" => {
                options.baseline = Some(args.next().ok_or("--baseline needs a path")?);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(options)
}

/// Builds the four-device fleet workload: per-device event streams merged
/// into one tagged, timestamp-ordered feed.
fn fleet_workload(quick: bool) -> (Vec<(StreamId, TraceEvent)>, MonitorConfig) {
    let (duration, reference) = if quick {
        (Duration::from_secs(40), Duration::from_secs(15))
    } else {
        (Duration::from_secs(120), Duration::from_secs(40))
    };
    let mut config = None;
    let sources: Vec<MemorySource> = (0..DEVICES)
        .map(|device| {
            // High-rate tracing (5 ms frames, 2 ms audio chunks): per-event
            // cost dominates per-window cost, which is what the engine
            // sees next to real tracing hardware.
            let scenario = Scenario::builder(&format!("bench-smoke-{device}"))
                .duration(duration)
                .reference_duration(reference)
                .frame_period(Duration::from_millis(5))
                .audio_period(Duration::from_millis(2))
                .seed(7 + u64::from(device))
                .build()
                .expect("valid scenario");
            let registry = scenario.registry().expect("registry");
            config.get_or_insert_with(|| {
                MonitorConfig::builder()
                    .dimensions(registry.len())
                    .reference_duration(reference)
                    .build()
                    .expect("valid monitor config")
            });
            let events: Vec<TraceEvent> = Simulation::new(&scenario, &registry)
                .expect("simulation")
                .collect();
            MemorySource::new(events).expect("ordered")
        })
        .collect();
    let tagged: Vec<(StreamId, TraceEvent)> = InterleavedStreams::new(sources).collect();
    (tagged, config.expect("at least one device"))
}

/// Builds the codec-comparison workload: one device's mm-sim endurance
/// trace cut into one-second recorded windows, each pre-encoded with the
/// recorder's binary codec (exactly the payload a session sink is
/// handed).
fn codec_workload(quick: bool) -> Vec<(RecordMeta, Vec<TraceEvent>, Vec<u8>)> {
    let (duration, reference) = if quick {
        (Duration::from_secs(40), Duration::from_secs(15))
    } else {
        (Duration::from_secs(120), Duration::from_secs(40))
    };
    let scenario = Scenario::builder("bench-smoke-codec")
        .duration(duration)
        .reference_duration(reference)
        .frame_period(Duration::from_millis(5))
        .audio_period(Duration::from_millis(2))
        .seed(11)
        .build()
        .expect("valid scenario");
    let registry = scenario.registry().expect("registry");
    let events: Vec<TraceEvent> = Simulation::new(&scenario, &registry)
        .expect("simulation")
        .collect();
    let mut encoder = BinaryEncoder::new();
    let mut windows = Vec::new();
    let mut window: Vec<TraceEvent> = Vec::new();
    let mut window_start = 0u64;
    const WINDOW_NS: u64 = 1_000_000_000;
    let mut flush = |window: &mut Vec<TraceEvent>, start: u64, windows: &mut Vec<_>| {
        if window.is_empty() {
            return;
        }
        let mut encoded = Vec::new();
        encoder.encode(window, &mut encoded).expect("encode");
        let meta = RecordMeta {
            window_id: WindowId::new(windows.len() as u64),
            start: Timestamp::from_nanos(start),
            end: Timestamp::from_nanos(start + WINDOW_NS),
        };
        windows.push((meta, std::mem::take(window), encoded));
    };
    for event in events {
        let slot = event.timestamp.as_nanos() / WINDOW_NS * WINDOW_NS;
        if slot != window_start {
            flush(&mut window, window_start, &mut windows);
            window_start = slot;
        }
        window.push(event);
    }
    flush(&mut window, window_start, &mut windows);
    windows
}

/// Builds the repro-minimization workload: a sealed synthetic
/// five-window extraction whose middle window is saturated with an
/// event type the learned reference has never seen (the same
/// deterministic scenario as `endurance-repro`'s golden fixture, with
/// larger windows so each ddmin oracle call re-runs a real detector
/// pass).
fn repro_workload() -> ReproArtifact {
    const WINDOW_NS: u64 = 40_000_000;
    const EVENTS_PER_WINDOW: usize = 48;
    let config = MonitorConfig::builder()
        .dimensions(4)
        .k(5)
        .alpha(1.2)
        .build()
        .expect("valid repro monitor config");
    let mix = |window: u64, anomalous: bool| -> Vec<TraceEvent> {
        (0..EVENTS_PER_WINDOW as u64)
            .map(|i| {
                let ty = if anomalous {
                    3
                } else {
                    match (i + window) % 8 {
                        0 => 2,
                        1..=4 => 0,
                        _ => 1,
                    }
                };
                let offset = (i + 1) * (WINDOW_NS / (EVENTS_PER_WINDOW as u64 + 1));
                TraceEvent::new(
                    Timestamp::from_nanos(window * WINDOW_NS + offset),
                    EventTypeId::new(ty),
                    i as u32,
                )
            })
            .collect()
    };
    let reference: Vec<Window> = (0..12u64)
        .map(|w| Window {
            id: WindowId::new(w),
            start: Timestamp::from_nanos(w * WINDOW_NS),
            end: Timestamp::from_nanos((w + 1) * WINDOW_NS),
            events: mix(w, false),
        })
        .collect();
    let model = ReferenceModel::learn_from_windows(&reference, &config).expect("model learns");
    let mut events = Vec::new();
    for w in 100u64..105 {
        events.extend(mix(w, w == 102));
    }
    ReproArtifact::from_events("bench-repro", 0, 102 * WINDOW_NS, &config, &model, &events)
        .expect("synthetic extraction reproduces")
}

/// Best-of-`reps` events/second for one measured closure.
fn measure(reps: usize, events: u64, mut run: impl FnMut()) -> f64 {
    let mut best = f64::MIN;
    for _ in 0..reps {
        best = best.max(timed_rate(events, &mut run));
    }
    best
}

/// Events/second of one timed call of `run`.
fn timed_rate(events: u64, run: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    run();
    events as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Events/second of two closures over the same `events`, measured in
/// alternation (`a`, `b`, `a`, `b`, …) so that a slow spell of the host
/// lands on both sides alike; each side's per-rep rates, ascending.
fn measure_interleaved(
    pairs: usize,
    events: u64,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> [Vec<f64>; 2] {
    let mut rates = [Vec::with_capacity(pairs), Vec::with_capacity(pairs)];
    for _ in 0..pairs {
        rates[0].push(timed_rate(events, &mut a));
        rates[1].push(timed_rate(events, &mut b));
    }
    for side in &mut rates {
        side.sort_by(f64::total_cmp);
    }
    rates
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("bench_smoke: {message}");
            return ExitCode::FAILURE;
        }
    };
    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let reps = if options.quick { 2 } else { 3 };

    eprintln!(
        "bench_smoke: building {} workload on {parallelism} hardware thread(s)...",
        if options.quick { "quick" } else { "full" }
    );
    let (tagged, config) = fleet_workload(options.quick);
    let events = tagged.len() as u64;
    let mut configs = Vec::new();

    // Single push-based session over the merged stream (the baseline the
    // fleet engine is compared against), without and with a live
    // registry attached: with one, every event crosses the instrumented
    // push path (branch + sampled timer) and every closed window flushes
    // its counters. The gap between the two is the whole cost of leaving
    // observability on, gated at 3% below (full runs) — on medians of
    // interleaved reps, because the host drifts by more than that between
    // two blocks of back-to-back reps.
    let obs_registry = Registry::new();
    let push_all = |registry: Option<&Arc<Registry>>| {
        let mut session = ReductionSession::new(config.clone())
            .expect("session")
            .with_sink(CountingSink::new());
        if let Some(registry) = registry {
            session = session.with_metrics(Arc::clone(registry));
        }
        for (_, event) in &tagged {
            session.push(*event).expect("push");
        }
        std::hint::black_box(session.finish().expect("finish").report);
    };
    let [plain_rates, instrumented_rates] = measure_interleaved(
        INSTRUMENTED_PAIRS,
        events,
        || push_all(None),
        || push_all(Some(&obs_registry)),
    );
    // The rates come back ascending: the configs report their best rep
    // like every other config, the gate compares the medians.
    let (best, median) = (INSTRUMENTED_PAIRS - 1, INSTRUMENTED_PAIRS / 2);
    let session_rate = plain_rates[best];
    let instrumented_rate = instrumented_rates[best];
    let instrumented_ratio = instrumented_rates[median] / plain_rates[median];
    eprintln!("  session_push:      {:>12.0} events/s", session_rate);
    configs.push(Measurement::rate("session_push", events, session_rate));
    eprintln!(
        "  session_push_instrumented: {:>4.0} events/s",
        instrumented_rate
    );
    configs.push(
        Measurement::rate("session_push_instrumented", events, instrumented_rate)
            .with_snapshot(obs_registry.snapshot()),
    );

    // The single-threaded counterpart of the fleet engine: one session
    // per device, routed inline on this thread. Identical output semantics
    // (per-device windows and traces), no parallelism.
    let serial_rate = measure(reps, events, || {
        let mut sessions: Vec<_> = (0..DEVICES as usize)
            .map(|_| {
                ReductionSession::new(config.clone())
                    .expect("session")
                    .with_sink(CountingSink::new())
            })
            .collect();
        for (source, event) in &tagged {
            sessions[source.index() % DEVICES as usize]
                .push(*event)
                .expect("push");
        }
        for session in sessions {
            std::hint::black_box(session.finish().expect("finish").report);
        }
    });
    eprintln!("  serial_4_sessions: {:>12.0} events/s", serial_rate);
    configs.push(Measurement::rate("serial_4_sessions", events, serial_rate));

    let mut sharded_4_rate = session_rate;
    for shards in SHARD_CONFIGS {
        // `shards` sessions on `shards` workers: every device is pushed
        // under the id `device % shards`.
        let rate = measure(reps, events, || {
            let mut fleet = FleetReducer::new(config.clone(), shards).expect("fleet");
            for (source, event) in &tagged {
                let shard = StreamId::new(source.as_u32() % shards as u32);
                fleet.push(shard, *event).expect("push");
            }
            std::hint::black_box(fleet.finish().expect("finish").aggregate);
        });
        eprintln!("  sharded_{shards}:         {:>12.0} events/s", rate);
        if shards == 4 {
            sharded_4_rate = rate;
        }
        configs.push(Measurement::rate(
            &format!("sharded_{shards}"),
            events,
            rate,
        ));
    }

    // Durable configuration: 4 shards recording through store lanes on
    // disk, each on its shard's worker, then a cold reopen replaying
    // every recorded event.
    // Throughput is normalised to the *pushed* events, so this number is
    // directly comparable with the in-memory sharded_4 line.
    let store_dir = std::env::temp_dir().join(format!("bench-smoke-store-{}", std::process::id()));
    let store_registry = Registry::new();
    let store_rate = measure(reps, events, || {
        let _ = std::fs::remove_dir_all(&store_dir);
        let dir = store_dir.clone();
        let registry = Arc::clone(&store_registry);
        let mut fleet = FleetReducer::new(config.clone(), 4)
            .expect("fleet")
            .with_sinks(move |shard: StreamId| {
                LaneWriter::create(&dir, shard.as_u32(), StoreConfig::default())
                    .expect("lane")
                    .with_metrics(&registry)
            });
        for (source, event) in &tagged {
            fleet.push(*source, *event).expect("push");
        }
        let outcome = fleet.finish().expect("finish");
        std::hint::black_box(&outcome.aggregate);
        for shard in outcome.streams {
            let writer = shard.sink.expect("every shard completes");
            writer.close().expect("close");
        }
        let reader = StoreReader::open(&store_dir).expect("open");
        let mut replayed = 0u64;
        for lane in reader.lane_ids() {
            replayed += reader.lane_events(lane).expect("replay").len() as u64;
        }
        assert_eq!(
            replayed, outcome.aggregate.recorder.events_recorded,
            "replay must return every recorded event"
        );
    });
    let _ = std::fs::remove_dir_all(&store_dir);
    eprintln!("  store_write_replay:{:>12.0} events/s", store_rate);
    configs.push(
        Measurement::rate("store_write_replay", events, store_rate)
            .with_snapshot(store_registry.snapshot()),
    );

    // Replay config: a dense many-segment lane read through the reader's
    // buffered read path, the store reopened per rep.
    let replay_dir =
        std::env::temp_dir().join(format!("bench-smoke-replay-{}", std::process::id()));
    let replay_windows = if options.quick { 4_000 } else { 12_000 };
    let replay_events = write_replay_store(&replay_dir, 1, replay_windows, 128);
    let buffered_rate = measure(reps, replay_events, || {
        let reader = StoreReader::open(&replay_dir).expect("open");
        std::hint::black_box(reader.lane_events(0).expect("buffered replay"));
    });
    eprintln!("  store_replay_buffered:{:>9.0} events/s", buffered_rate);
    configs.push(Measurement::rate(
        "store_replay_buffered",
        replay_events,
        buffered_rate,
    ));
    let _ = std::fs::remove_dir_all(&replay_dir);

    // CRC configs: the frame checksum kernel over frame-sized payloads,
    // sliced (the production `crc32`) and bit-at-a-time (the reference
    // `crc32_scalar`). Throughput is bytes per second; the speedup of the
    // sliced kernel is gated at >= 3x below.
    let crc_frames = if options.quick { 1_024 } else { 4_096 };
    let crc_buf: Vec<u8> = {
        // Deterministic xorshift fill: content does not affect CRC cost,
        // but a constant buffer would invite the optimiser to fold.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..crc_frames * CRC_FRAME_BYTES)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    };
    let crc_bytes = crc_buf.len() as u64;
    let crc_rate = measure(reps, crc_bytes, || {
        for frame in crc_buf.chunks(CRC_FRAME_BYTES) {
            std::hint::black_box(crc32(frame));
        }
    });
    let crc_scalar_rate = measure(reps, crc_bytes, || {
        for frame in crc_buf.chunks(CRC_FRAME_BYTES) {
            std::hint::black_box(crc32_scalar(frame));
        }
    });
    eprintln!("  crc32_frame:       {:>12.0} bytes/s", crc_rate);
    eprintln!("  crc32_frame_scalar:{:>12.0} bytes/s", crc_scalar_rate);
    configs.push(Measurement::rate("crc32_frame", crc_bytes, crc_rate));
    configs.push(Measurement::rate(
        "crc32_frame_scalar",
        crc_bytes,
        crc_scalar_rate,
    ));

    // Compaction configs: merge heavily fragmented lanes (one window per
    // segment, one lane per writer shard) into consolidated segments,
    // once with a single worker and once with the auto-sized pool. The
    // store is rebuilt outside the timed region each rep; the parallel
    // pass's speedup is gated at >= 1.5x below where cores allow.
    let compact_dir =
        std::env::temp_dir().join(format!("bench-smoke-compact-{}", std::process::id()));
    let compact_windows = if options.quick { 400 } else { 1_200 };
    let compaction_workers = (COMPACT_LANES as usize).min(parallelism);
    let compact_registry = Registry::new();
    let mut compact_rates = [f64::MIN; 2];
    let mut compact_events = 0u64;
    for (slot, workers) in [1usize, 0].into_iter().enumerate() {
        for _ in 0..reps {
            compact_events = write_replay_store(&compact_dir, COMPACT_LANES, compact_windows, 1);
            let policy = MaintenancePolicy::merge_below(u64::MAX).with_compact_workers(workers);
            let compactor = Compactor::new(&compact_dir, policy);
            let compactor = if workers == 0 {
                // Only the shipped (auto-sized) pass feeds the artifact's
                // metrics snapshot.
                compactor.with_metrics(&compact_registry)
            } else {
                compactor
            };
            let start = Instant::now();
            let report = compactor.compact().expect("compact");
            let elapsed = start.elapsed().as_secs_f64().max(1e-9);
            assert!(
                report.merged_runs() >= COMPACT_LANES as usize,
                "every fragmented lane must be merged"
            );
            compact_rates[slot] = compact_rates[slot].max(compact_events as f64 / elapsed);
        }
    }
    let _ = std::fs::remove_dir_all(&compact_dir);
    let [compact_serial_rate, compact_rate] = compact_rates;
    eprintln!(
        "  store_compact_serial:{:>10.0} events/s",
        compact_serial_rate
    );
    eprintln!(
        "  store_compact:     {:>12.0} events/s  ({compaction_workers} workers)",
        compact_rate
    );
    configs.push(Measurement::rate(
        "store_compact_serial",
        compact_events,
        compact_serial_rate,
    ));
    configs.push(
        Measurement::rate("store_compact", compact_events, compact_rate)
            .with_snapshot(compact_registry.snapshot()),
    );

    // Crowded-directory configs: the store a churning fleet leaves — one
    // short-lived, one-segment lane per device, all in one flat
    // directory. Per-lane cost must not grow with the neighbours' files:
    // a maintenance pass (merge + `EDV` recompress, one worker; windows
    // this short mostly stay identity frames, as a churning fleet's do)
    // over all the lanes, and creating + closing one more lane next to
    // them (rate = lanes per second).
    // On tmpfs where the host has one: these two time the store's code
    // per lane, and a disk's `fsync` and metadata latency (milliseconds
    // per lane on a VM's virtual disk) would hide a 5x difference in it.
    let crowded_dir = [std::path::Path::new("/dev/shm"), &std::env::temp_dir()]
        .into_iter()
        .map(|root| root.join(format!("bench-smoke-crowded-{}", std::process::id())))
        .find(|dir| std::fs::create_dir_all(dir).is_ok())
        .expect("a writable scratch directory");
    let mut many_lanes_rate = f64::MIN;
    let mut many_lanes_events = 0u64;
    for _ in 0..reps {
        many_lanes_events = write_replay_store(&crowded_dir, CROWDED_LANES, 4, u64::MAX);
        let policy = MaintenancePolicy::merge_below(u64::MAX)
            .with_recompress(CodecId::DeltaVarint)
            .with_compact_workers(1);
        let compactor = Compactor::new(&crowded_dir, policy);
        many_lanes_rate = many_lanes_rate.max(timed_rate(many_lanes_events, &mut || {
            let report = compactor.compact().expect("compact");
            assert_eq!(report.lanes.len(), CROWDED_LANES as usize);
        }));
    }
    eprintln!(
        "  store_compact_many_lanes: {many_lanes_rate:>7.0} events/s  ({CROWDED_LANES} lanes)"
    );
    configs.push(Measurement::rate(
        "store_compact_many_lanes",
        many_lanes_events,
        many_lanes_rate,
    ));
    write_replay_store(&crowded_dir, CROWDED_LANES - 1, 4, u64::MAX);
    let crowded_creates = 200u64;
    let lane_create_rate = measure(reps, crowded_creates, || {
        for _ in 0..crowded_creates {
            LaneWriter::create(&crowded_dir, CROWDED_LANES - 1, StoreConfig::default())
                .expect("lane")
                .close()
                .expect("close");
        }
    });
    let _ = std::fs::remove_dir_all(&crowded_dir);
    eprintln!(
        "  store_lane_create_crowded: {lane_create_rate:>6.0} lanes/s  (next to {} lanes)",
        CROWDED_LANES - 1
    );
    configs.push(Measurement::rate(
        "store_lane_create_crowded",
        crowded_creates,
        lane_create_rate,
    ));

    // The mm-sim endurance trace, cut into one-second recorded windows
    // (the monitor's recording granularity): what the recompression and
    // live serving configs below record.
    let codec_windows = codec_workload(options.quick);
    let codec_events: u64 = codec_windows.iter().map(|(_, e, _)| e.len() as u64).sum();

    // Recompression config: the windows written as a v1 store, as every
    // writer leaves one, then re-encoded in place by a maintenance pass
    // targeting DeltaVarint — the one place a lane is compressed. Bytes
    // on disk are the paper's actual metric; the ratio is gated at
    // >= 1.5x below.
    let recompress_dir =
        std::env::temp_dir().join(format!("bench-smoke-recompress-{}", std::process::id()));
    let mut recompress_rate = f64::MIN;
    let mut recompress_report = None;
    let recompress_registry = Registry::new();
    for _ in 0..reps {
        let _ = std::fs::remove_dir_all(&recompress_dir);
        let config = StoreConfig::default().with_segment_max_windows(16);
        let mut writer = LaneWriter::create(&recompress_dir, 0, config).expect("lane");
        for (meta, events, encoded) in &codec_windows {
            writer.record_window(meta, events, encoded).expect("record");
        }
        writer.close().expect("close");
        let policy = MaintenancePolicy::disabled().with_recompress(CodecId::DeltaVarint);
        let compactor = Compactor::new(&recompress_dir, policy).with_metrics(&recompress_registry);
        let start = Instant::now();
        let report = compactor.compact().expect("recompress");
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        assert!(
            report.recompressed_windows() > 0,
            "v1 frames must be re-encoded"
        );
        recompress_rate = recompress_rate.max(codec_events as f64 / elapsed);
        recompress_report = Some(report);
    }
    let _ = std::fs::remove_dir_all(&recompress_dir);
    let recompress_report = recompress_report.expect("at least one rep ran");
    let recompress_ratio = recompress_report.compression_ratio().unwrap_or(1.0);
    eprintln!(
        "  store_compact_recompress: {recompress_rate:>7.0} events/s  ({recompress_ratio:.2}x payload)",
    );
    configs.push(Measurement {
        name: "store_compact_recompress".to_string(),
        events: codec_events,
        events_per_sec: recompress_rate,
        bytes_on_disk: Some(recompress_report.lanes.iter().map(|l| l.bytes_after).sum()),
        compression_ratio: Some(recompress_ratio),
        metrics: Some(recompress_registry.snapshot()),
    });

    // Live serving configs: the same pre-encoded windows recorded through
    // a serving-handle lane, solo and with four tail subscriptions
    // draining the commit stream while the writer appends. Only the
    // writer's work (record + close) is timed; the followers run on their
    // own threads and are joined (and verified) outside the timed region.
    let live_dir = std::env::temp_dir().join(format!("bench-smoke-live-{}", std::process::id()));
    let mut live_rates = [f64::MIN; 2];
    let live_registries = [Registry::new(), Registry::new()];
    for (slot, followers) in [0usize, LIVE_FOLLOWERS].into_iter().enumerate() {
        for _ in 0..reps {
            let _ = std::fs::remove_dir_all(&live_dir);
            let serve = ServeHandle::open(&live_dir)
                .expect("serve")
                .with_metrics(Arc::clone(&live_registries[slot]));
            let drains: Vec<_> = (0..followers)
                .map(|_| {
                    let subscription = serve.subscribe_with(
                        0,
                        SubscribeOptions {
                            buffer: 512,
                            resume_grace: Duration::ZERO,
                        },
                    );
                    std::thread::spawn(move || {
                        let mut delivered = 0u64;
                        loop {
                            match subscription
                                .recv(Duration::from_secs(10))
                                .expect("follower")
                            {
                                SubscriptionStep::Window(window) => {
                                    std::hint::black_box(&window.payload);
                                    delivered += 1;
                                }
                                SubscriptionStep::TimedOut => continue,
                                SubscriptionStep::Ended => {
                                    return (delivered, subscription.stats().dropped)
                                }
                            }
                        }
                    })
                })
                .collect();
            let mut sink = serve
                .create_writer(0, StoreConfig::default())
                .expect("lane");
            let start = Instant::now();
            for (meta, events, encoded) in &codec_windows {
                sink.record_window(meta, events, encoded).expect("record");
            }
            sink.close().expect("close");
            let elapsed = start.elapsed().as_secs_f64().max(1e-9);
            live_rates[slot] = live_rates[slot].max(codec_events as f64 / elapsed);
            for drain in drains {
                let (delivered, dropped) = drain.join().expect("follower thread");
                assert_eq!(
                    delivered + dropped,
                    codec_windows.len() as u64,
                    "every committed window is delivered exactly once or an \
                     accounted drop"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&live_dir);
    let [live_solo_rate, live_mixed_rate] = live_rates;
    eprintln!("  store_live_solo:   {:>12.0} events/s", live_solo_rate);
    eprintln!(
        "  store_live_mixed:  {:>12.0} events/s  ({LIVE_FOLLOWERS} followers)",
        live_mixed_rate
    );
    configs.push(
        Measurement::rate("store_live_solo", codec_events, live_solo_rate)
            .with_snapshot(live_registries[0].snapshot()),
    );
    configs.push(
        Measurement::rate("store_live_mixed", codec_events, live_mixed_rate)
            .with_snapshot(live_registries[1].snapshot()),
    );

    // Repro-minimization config: ddmin over the synthetic extraction,
    // each oracle call re-running a fresh detector session from the
    // artifact's own config and model. Throughput is normalised to the
    // events the minimizer starts from, so the rate tracks the real
    // cost drivers (oracle calls × events re-run per call).
    let repro_artifact = repro_workload();
    let repro_events = repro_artifact.event_count() as u64;
    let repro_minimize_config = MinimizeConfig::default();
    let repro_rate = measure(reps, repro_events, || {
        let outcome = minimize(&repro_artifact, &repro_minimize_config).expect("minimize");
        assert!(
            outcome.report.proven_minimal,
            "the synthetic repro must minimize within the default budget"
        );
        std::hint::black_box(outcome.artifact.event_count());
    });
    eprintln!("  repro_minimize:    {:>12.0} events/s", repro_rate);
    configs.push(Measurement::rate(
        "repro_minimize",
        repro_events,
        repro_rate,
    ));

    // LOF configs: the model shape periodic traces produce (3 000 × 14
    // points, 12 distinct, K = 20). Scoring is the per-window cost of
    // every window the drift gate lets through; fitting is paid once per
    // learned session and once per model reloaded from JSON.
    let lof_points = duplicated_reference_points(3_000, 14, 12);
    let lof_config = LofConfig::new(20).expect("valid k");
    let lof_model = LofModel::fit(lof_points.clone(), lof_config).expect("fit");
    let lof_queries = duplicated_queries(64, 14, 12);
    let lof_scores = 100_000u64;
    let lof_score_rate = measure(reps, lof_scores, || {
        let sum: f64 = (0..lof_scores as usize)
            .map(|i| {
                lof_model
                    .score(&lof_queries[i % lof_queries.len()])
                    .expect("score")
            })
            .sum();
        std::hint::black_box(sum);
    });
    eprintln!("  lof_score_duplicated: {:>9.0} scores/s", lof_score_rate);
    configs.push(Measurement::rate(
        "lof_score_duplicated",
        lof_scores,
        lof_score_rate,
    ));
    let lof_fits = 20u64;
    let lof_fit_points = lof_fits * lof_points.len() as u64;
    let lof_fit_rate = measure(reps, lof_fit_points, || {
        for _ in 0..lof_fits {
            let model = LofModel::fit(lof_points.clone(), lof_config).expect("fit");
            std::hint::black_box(model.distinct_points());
        }
    });
    eprintln!("  lof_fit_duplicated:   {:>9.0} points/s", lof_fit_rate);
    configs.push(Measurement::rate(
        "lof_fit_duplicated",
        lof_fit_points,
        lof_fit_rate,
    ));

    // Load the baseline (when given) before writing the artifact so the
    // per-config deltas ride along in it.
    let baseline: Option<Baseline> = match &options.baseline {
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
        {
            Ok(baseline) => Some(baseline),
            Err(error) => {
                eprintln!("bench_smoke: cannot read baseline {path}: {error}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let deltas: Vec<Delta> = baseline
        .as_ref()
        .map(|baseline| {
            baseline
                .configs
                .iter()
                .filter_map(|entry| {
                    let measured = configs.iter().find(|m| m.name == entry.name)?;
                    Some(Delta {
                        name: entry.name.clone(),
                        pct_vs_reference: (measured.events_per_sec
                            / entry.reference_events_per_sec
                            - 1.0)
                            * 100.0,
                    })
                })
                .collect()
        })
        .unwrap_or_default();

    let speedup = sharded_4_rate / serial_rate.max(1e-9);
    let crc32_speedup = crc_rate / crc_scalar_rate.max(1e-9);
    let compact_parallel_speedup = compact_rate / compact_serial_rate.max(1e-9);
    let live_follow_ratio = live_mixed_rate / live_solo_rate.max(1e-9);
    let artifact = Artifact {
        schema: 11,
        quick: options.quick,
        parallelism,
        compaction_workers,
        configs,
        speedup_4_shards: speedup,
        crc32_speedup,
        compact_parallel_speedup,
        recompress_ratio,
        live_follow_ratio,
        instrumented_ratio,
        deltas,
    };
    let json = serde_json::to_string(&artifact).expect("serialise artifact");
    if let Err(error) = std::fs::write(&options.out, &json) {
        eprintln!("bench_smoke: cannot write {}: {error}", options.out);
        return ExitCode::FAILURE;
    }
    eprintln!(
        "bench_smoke: wrote {} ({} configs, 4-shard speedup {speedup:.2}x)",
        options.out,
        artifact.configs.len()
    );

    let mut failed = false;

    // Gate 1: regression against the checked-in baseline.
    if let Some(baseline) = &baseline {
        for entry in &baseline.configs {
            let Some(measured) = artifact.configs.iter().find(|m| m.name == entry.name) else {
                eprintln!("bench_smoke: FAIL {}: missing from this run", entry.name);
                failed = true;
                continue;
            };
            let floor = entry.reference_events_per_sec * (1.0 - REGRESSION_TOLERANCE);
            // The delta against the reference makes improvements (e.g.
            // pooled per-window buffers) visible in the CI log, not just
            // regressions.
            let delta = (measured.events_per_sec / entry.reference_events_per_sec - 1.0) * 100.0;
            if measured.events_per_sec < floor {
                eprintln!(
                    "bench_smoke: FAIL {}: {:.0} events/s is below the regression floor \
                     {:.0} (reference {:.0}, tolerance {:.0}%)",
                    entry.name,
                    measured.events_per_sec,
                    floor,
                    entry.reference_events_per_sec,
                    REGRESSION_TOLERANCE * 100.0
                );
                failed = true;
            } else {
                eprintln!(
                    "bench_smoke: ok   {}: {:.0} events/s (floor {:.0}, {delta:+.0}% vs reference)",
                    entry.name, measured.events_per_sec, floor
                );
            }
        }
    } else {
        eprintln!("bench_smoke: no --baseline given, regression gate skipped");
    }

    // Gate on instrumentation overhead: the same session loop with a
    // live registry must stay within INSTRUMENTED_TOLERANCE of the
    // disabled-registry rate. This is the observability layer's "cheap
    // enough to leave on" contract — a new counter on the push path that
    // breaks this budget fails here, not in production.
    // A quick rep is a few milliseconds, of which the per-session
    // registration of the metric series alone is a percent or two: the
    // 3% bound cannot be resolved at that size, so quick runs report.
    let instrumented_floor = 1.0 - INSTRUMENTED_TOLERANCE;
    if options.quick {
        eprintln!(
            "bench_smoke: skip instrumentation-overhead gate: quick run; measured median \
             session_push_instrumented at {:.1}% of session_push over {INSTRUMENTED_PAIRS} \
             interleaved reps",
            instrumented_ratio * 100.0
        );
    } else if instrumented_ratio < instrumented_floor {
        eprintln!(
            "bench_smoke: FAIL session_push_instrumented: median rate is {:.1}% of \
             session_push's over {INSTRUMENTED_PAIRS} interleaved reps, need >= {:.0}%",
            instrumented_ratio * 100.0,
            instrumented_floor * 100.0
        );
        failed = true;
    } else {
        eprintln!(
            "bench_smoke: ok   session_push_instrumented: median rate is {:.1}% of \
             session_push's over {INSTRUMENTED_PAIRS} interleaved reps (>= {:.0}%)",
            instrumented_ratio * 100.0,
            instrumented_floor * 100.0
        );
    }

    // Gate on the CRC kernel: the slice-by-8 implementation must beat
    // the bit-at-a-time reference decisively on frame-sized payloads —
    // every frame append and every recovery scan pays this kernel.
    if crc32_speedup < REQUIRED_CRC_SPEEDUP {
        eprintln!(
            "bench_smoke: FAIL crc32 kernel: {crc32_speedup:.2}x over the scalar reference, \
             need >= {REQUIRED_CRC_SPEEDUP:.1}x"
        );
        failed = true;
    } else {
        eprintln!(
            "bench_smoke: ok   crc32 kernel: {crc32_speedup:.2}x over the scalar reference \
             (>= {REQUIRED_CRC_SPEEDUP:.1}x)"
        );
    }

    // Gate on parallel compaction: the auto-sized multi-lane pass must
    // actually scale where a core per lane exists. On smaller hosts the
    // ratio is reported but not gated — the pool cannot conjure cores.
    if parallelism >= COMPACT_LANES as usize {
        if compact_parallel_speedup < REQUIRED_COMPACT_SPEEDUP {
            eprintln!(
                "bench_smoke: FAIL parallel compaction: {compact_parallel_speedup:.2}x over \
                 the single-worker pass with {compaction_workers} workers, need >= \
                 {REQUIRED_COMPACT_SPEEDUP:.1}x"
            );
            failed = true;
        } else {
            eprintln!(
                "bench_smoke: ok   parallel compaction: {compact_parallel_speedup:.2}x over \
                 the single-worker pass (>= {REQUIRED_COMPACT_SPEEDUP:.1}x, \
                 {compaction_workers} workers)"
            );
        }
    } else {
        eprintln!(
            "bench_smoke: skip parallel compaction gate: only {parallelism} hardware \
             thread(s) available (needs {COMPACT_LANES}); measured \
             {compact_parallel_speedup:.2}x"
        );
    }

    // Gate 3: recompression into the DeltaVarint frame codec must
    // actually shrink the mm-sim endurance workload on disk — this is
    // the paper's metric, and a codec that stops paying for itself must
    // fail the PR.
    if recompress_ratio < REQUIRED_DELTA_RATIO {
        eprintln!(
            "bench_smoke: FAIL recompression ratio: {recompress_ratio:.2}x payload reduction \
             re-encoding a v1 store, need >= {REQUIRED_DELTA_RATIO:.1}x"
        );
        failed = true;
    } else {
        eprintln!(
            "bench_smoke: ok   recompression ratio: {recompress_ratio:.2}x payload reduction \
             re-encoding a v1 store (>= {REQUIRED_DELTA_RATIO:.1}x)"
        );
    }

    // Gate 4: live followers must ride the commit watermarks nearly
    // free — four subscriptions draining the lane may cost the writer at
    // most LIVE_FOLLOW_TOLERANCE of its solo rate. On hosts without a
    // spare core per follower the followers necessarily steal writer
    // CPU, so (like the speedup gate) the ratio is reported but not
    // gated there.
    let live_floor = 1.0 - LIVE_FOLLOW_TOLERANCE;
    if parallelism <= LIVE_FOLLOWERS {
        eprintln!(
            "bench_smoke: skip live-follower gate: only {parallelism} hardware thread(s) \
             available (needs > {LIVE_FOLLOWERS}); measured {:.0}% of solo",
            live_follow_ratio * 100.0
        );
    } else if live_follow_ratio < live_floor {
        eprintln!(
            "bench_smoke: FAIL live followers: store_live_mixed at {live_mixed_rate:.0} \
             events/s is {:.0}% of store_live_solo ({live_solo_rate:.0}), need >= {:.0}%",
            live_follow_ratio * 100.0,
            live_floor * 100.0
        );
        failed = true;
    } else {
        eprintln!(
            "bench_smoke: ok   live followers: store_live_mixed at {:.0}% of \
             store_live_solo (>= {:.0}%, {LIVE_FOLLOWERS} followers)",
            live_follow_ratio * 100.0,
            live_floor * 100.0
        );
    }

    // Gate 2: the fleet engine must actually scale where cores exist.
    if parallelism >= MIN_PARALLELISM_FOR_SPEEDUP_GATE {
        if speedup < REQUIRED_SPEEDUP {
            eprintln!(
                "bench_smoke: FAIL sharded speedup: {speedup:.2}x over serial_4_sessions at \
                 4 shards on {parallelism} threads, need >= {REQUIRED_SPEEDUP:.1}x"
            );
            failed = true;
        } else {
            eprintln!(
                "bench_smoke: ok   sharded speedup: {speedup:.2}x over serial_4_sessions at \
                 4 shards (>= {REQUIRED_SPEEDUP:.1}x)"
            );
        }
    } else {
        eprintln!(
            "bench_smoke: skip sharded speedup gate: only {parallelism} hardware thread(s) \
             available (needs {MIN_PARALLELISM_FOR_SPEEDUP_GATE}); measured {speedup:.2}x"
        );
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
