//! The pipeline under test, one function per phase.
//!
//! Every workload runs the same five phases — ingest, maintain, cold
//! replay, point queries, repro — through the crates' public functions
//! only. Each phase takes a [`Probe`]: in the untraced run its tracer and
//! registry are disabled and the phase executes the very same code.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use endurance_core::{FleetReducer, WindowDecision};
use endurance_eval::{
    label_decisions, ConfusionMatrix, DelayCalibration, GroundTruth, WindowLabel,
};
use endurance_obs::Registry;
use endurance_repro::{extract_window, minimize, MinimizeConfig, ReproError};
use endurance_serve::{ServeHandle, SubscribeOptions, Subscription, SubscriptionStep};
use endurance_store::{
    CodecId, CompactionReport, Compactor, LaneWriter, MaintenancePolicy, SegmentCache, Snapshot,
    StoreConfig, StoreReader,
};
use mm_sim::FleetEvent;
use trace_model::{EventSink, RecordMeta, StreamId, TraceError, TraceEvent, WindowId};

use crate::spec::Input;
use crate::tracer::Tracer;
use crate::BenchError;

/// `FleetReducer` worker threads: fixed, so the numbers do not depend on
/// how many cores the host reports.
pub const WORKERS: usize = 2;
/// `Compactor` workers. One: a maintenance pass is a burst of tens of
/// milliseconds, and whether two freshly spawned threads of such a burst
/// run side by side on a two-thread virtual machine is up to the host
/// (the same `compact()` on `paper_steady`'s two lanes took a steady
/// 12 ms or a steady 22 ms for half an hour at a time, and so did two
/// threads of plain arithmetic). `bench_smoke` gates the parallel pass.
pub const COMPACT_WORKERS: usize = 1;
/// Lanes `0..FOLLOWED_LANES` have a live `Subscription` during ingest.
pub const FOLLOWED_LANES: u32 = 4;
/// Events per `core.push_batch` span (the reducer's own batch size).
const PUSH_BATCH: usize = 4096;
/// Recorded neighbour windows kept on each side of an extracted target.
const REPRO_CONTEXT: usize = 2;
/// Sections an ingest and a cold pass are timed in, at most (see
/// [`Laps`]): tens of milliseconds each.
const SECTIONS: usize = 16;
/// Follower queue depth: deep enough that a follower sharing two cores
/// with the writers never has to drop (a drop fails the run).
const FOLLOW_BUFFER: usize = 1 << 20;

/// The two observation channels of the traced run; both inert otherwise.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Spans around the calls into each layer.
    pub tracer: Arc<Tracer>,
    /// Attached to ingest through the layers' existing `with_metrics`
    /// builders.
    pub registry: Arc<Registry>,
    /// Attached to maintenance and the point-query snapshot. A registry
    /// of its own, because ingest's followers read through a segment
    /// cache too and would count into the same series.
    pub read_registry: Arc<Registry>,
}

impl Probe {
    /// The untraced run: no spans, `Registry::disabled()`.
    pub fn off() -> Self {
        Probe {
            tracer: Arc::new(Tracer::disabled()),
            registry: Registry::disabled(),
            read_registry: Registry::disabled(),
        }
    }

    /// The traced run: spans into `tracer`, fresh live registries.
    pub fn on(tracer: Arc<Tracer>) -> Self {
        Probe {
            tracer,
            registry: Registry::new(),
            read_registry: Registry::new(),
        }
    }
}

/// One timed operation, split into sections that are the same work every
/// time the operation is repeated (`stats::Sectioned` says what for).
#[derive(Debug)]
struct Laps {
    started: Instant,
    /// Time from `started` to the end of the last section.
    at: Duration,
    sections: Vec<Duration>,
}

impl Laps {
    fn start() -> Self {
        Laps {
            started: Instant::now(),
            at: Duration::ZERO,
            sections: Vec::with_capacity(SECTIONS + 1),
        }
    }

    /// Ends a section here; the next one begins.
    fn lap(&mut self) {
        let now = self.started.elapsed();
        self.sections.push(now - self.at);
        self.at = now;
    }
}

/// The store configuration a user gets, with segments small enough that
/// dense lanes rotate many times within a run.
pub fn store_config() -> StoreConfig {
    StoreConfig::default().with_segment_max_windows(256)
}

/// Operations attempted and failed; a refused operation is a failed one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

impl Ops {
    /// Adds another tally.
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A store lane writer behind the sink interface, or the reason it could
/// not be opened (which then fails that stream alone, and is counted).
#[derive(Debug)]
pub struct LaneSink {
    writer: Result<Box<LaneWriter>, String>,
    tracer: Arc<Tracer>,
}

impl LaneSink {
    fn create(serve: &ServeHandle, lane: u32, tracer: Arc<Tracer>) -> Self {
        let span = tracer.span("store.lane_create");
        let writer = serve
            .create_writer(lane, store_config())
            .map(Box::new)
            .map_err(|err| err.to_string());
        span.end();
        LaneSink { writer, tracer }
    }
}

fn ready(writer: &mut Result<Box<LaneWriter>, String>) -> Result<&mut LaneWriter, TraceError> {
    match writer {
        Ok(writer) => Ok(writer),
        Err(msg) => Err(TraceError::Io(std::io::Error::other(msg.clone()))),
    }
}

impl EventSink for LaneSink {
    fn record(&mut self, events: &[TraceEvent]) -> Result<(), TraceError> {
        ready(&mut self.writer)?.record(events)
    }

    fn record_encoded(&mut self, events: &[TraceEvent], encoded: &[u8]) -> Result<(), TraceError> {
        ready(&mut self.writer)?.record_encoded(events, encoded)
    }

    fn record_window(
        &mut self,
        meta: &RecordMeta,
        events: &[TraceEvent],
        encoded: &[u8],
    ) -> Result<(), TraceError> {
        let _span = self.tracer.span("store.append");
        ready(&mut self.writer)?.record_window(meta, events, encoded)
    }

    fn recorded_events(&self) -> usize {
        self.writer.as_ref().map_or(0, |w| w.recorded_events())
    }
}

/// Everything about one ingest repetition that must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestCounts {
    /// Deliveries pushed.
    pub events_pushed: u64,
    /// Windows the monitors closed.
    pub windows_monitored: u64,
    /// Windows that passed the drift gate and were LOF-scored.
    pub windows_scored: u64,
    /// Windows recorded, by the sessions' reports.
    pub windows_recorded: u64,
    /// Events inside the recorded windows.
    pub events_recorded: u64,
    /// `ETRC` bytes of the recorded windows.
    pub recorded_encoded_bytes: u64,
    /// Frames the lane writers appended.
    pub frames_written: u64,
    /// Bytes the lane writers report on disk at close.
    pub bytes_on_disk: u64,
    /// Streams that got a session.
    pub streams_opened: u64,
    /// Streams whose session or lane failed.
    pub streams_failed: u64,
    /// Windows recorded on the followed lanes.
    pub followed_recorded: u64,
    /// Windows the follower received.
    pub followed_delivered: u64,
    /// Windows the follower's queues dropped.
    pub followed_dropped: u64,
    /// True positives, false positives, false negatives, true negatives.
    pub confusion: [u64; 4],
}

/// What the follower thread saw.
#[derive(Debug, Default)]
pub struct FollowerLog {
    /// Windows received, over all followed lanes.
    pub delivered: u64,
    /// Windows dropped by the subscriptions' queues.
    pub dropped: u64,
    /// Highest `SubscriptionStats::behind` observed.
    pub behind_max: u64,
    /// `(lane, window end, receive time)` per window; traced run only.
    pub received: Vec<(u32, u64, u64)>,
    /// From the last lane close returning to the last subscription ending.
    pub drain_after_close: Duration,
}

/// One ingest repetition.
#[derive(Debug)]
pub struct Ingest {
    /// First `push` to last `LaneWriter::close` returning.
    pub wall: Duration,
    /// `wall` in sections: the pushes of each sixteenth of the deliveries,
    /// then the stream closes left, `finish()` and the lane closes.
    pub sections: Vec<Duration>,
    /// The exactly-repeating part.
    pub counts: IngestCounts,
    /// Detection quality against the injected truth.
    pub confusion: ConfusionMatrix,
    /// True-positive windows in `(stream, window)` order: repro targets.
    pub tp_windows: Vec<(u32, u64)>,
    /// The follower's side.
    pub follower: FollowerLog,
    /// Per followed lane: `(earliest event time in the batch, time the
    /// pusher finished handing the batch over)`; traced run only.
    pub handovers: Vec<Vec<(u64, u64)>>,
    /// Streams, lane opens and follower windows attempted / failed.
    pub ops: Ops,
}

/// Phase 1: the whole trace through `FleetReducer` into one store lane
/// per stream, with live followers on the first lanes.
pub fn ingest(input: &Input, dir: &Path, probe: &Probe) -> Result<Ingest, BenchError> {
    let tracer = &probe.tracer;
    let serve = ServeHandle::open(dir)?.with_metrics(Arc::clone(&probe.registry));
    let followed = input.streams.min(FOLLOWED_LANES);
    let subscriptions: Vec<Subscription> = (0..followed)
        .map(|lane| {
            serve.subscribe_with(
                lane,
                SubscribeOptions {
                    buffer: FOLLOW_BUFFER,
                    // The grace only matters across a writer crash, which
                    // no workload has; without it a follower ends as soon
                    // as its lane is closed and drained.
                    resume_grace: Duration::ZERO,
                },
            )
        })
        .collect();

    let sink_serve = serve.clone();
    let sink_tracer = Arc::clone(tracer);
    let mut fleet = FleetReducer::from_model(input.model.clone(), WORKERS)?
        .with_sinks(move |stream: StreamId| {
            LaneSink::create(&sink_serve, stream.as_u32(), Arc::clone(&sink_tracer))
        })
        .with_observers(|_| Vec::<WindowDecision>::new())
        .with_metrics(Arc::clone(&probe.registry));

    let writers_closed = AtomicBool::new(false);
    let traced = tracer.is_enabled();
    let mut handovers: Vec<Vec<(u64, u64)>> = vec![Vec::new(); followed as usize];

    let section_len = (input.events as usize).div_ceil(SECTIONS).max(1);
    let (laps, outcome, writers, follower) = std::thread::scope(|scope| {
        let follower = scope.spawn(|| follow(&serve, &subscriptions, tracer, &writers_closed));

        let pushed = (|| -> Result<_, BenchError> {
            let mut laps = Laps::start();
            let phase = tracer.phase("ingest");
            let mut batch_span = tracer.span("core.push_batch");
            let mut in_batch = 0usize;
            let mut in_section = 0usize;
            let mut batch_first_ts = vec![u64::MAX; followed as usize];
            for item in &input.trace {
                match item {
                    FleetEvent::Delivery(stream, event) => {
                        fleet.push(*stream, *event)?;
                        if traced && stream.as_u32() < followed {
                            let first = &mut batch_first_ts[stream.as_u32() as usize];
                            *first = (*first).min(event.timestamp.as_nanos());
                        }
                        in_section += 1;
                        if in_section == section_len {
                            in_section = 0;
                            laps.lap();
                        }
                        in_batch += 1;
                        if in_batch == PUSH_BATCH {
                            in_batch = 0;
                            batch_span.end();
                            if traced {
                                let now = tracer.now_ns();
                                for (lane, first) in batch_first_ts.iter_mut().enumerate() {
                                    if *first != u64::MAX {
                                        handovers[lane].push((*first, now));
                                        *first = u64::MAX;
                                    }
                                }
                            }
                            batch_span = tracer.span("core.push_batch");
                        }
                    }
                    FleetEvent::StreamClosed(stream) => {
                        let _span = tracer.span("core.close_stream");
                        fleet.close_stream(*stream)?;
                    }
                }
            }
            batch_span.end();
            if traced {
                let now = tracer.now_ns();
                for (lane, first) in batch_first_ts.iter().enumerate() {
                    if *first != u64::MAX {
                        handovers[lane].push((*first, now));
                    }
                }
            }
            let mut outcome = {
                let _span = tracer.span("core.finish");
                fleet.finish()?
            };
            let mut writers = Vec::with_capacity(outcome.streams.len());
            for stream in &mut outcome.streams {
                let Some(sink) = stream.sink.take() else {
                    continue;
                };
                // Frames written and bytes on disk per lane; `None` for a
                // lane that could not be opened.
                writers.push(match sink.writer {
                    Ok(writer) => {
                        let written = (writer.windows_written(), writer.bytes_on_disk());
                        let _span = tracer.span("store.lane_close");
                        writer.close()?;
                        Some(written)
                    }
                    Err(_) => None,
                });
            }
            phase.end();
            laps.lap();
            Ok((laps, outcome, writers))
        })();
        // Set on failure too, so the follower never outlives the attempt.
        writers_closed.store(true, Ordering::SeqCst);
        let closed_at = Instant::now();
        let follower = follower.join().expect("follower thread panicked");
        let (laps, outcome, writers) = pushed?;
        let mut follower = follower?;
        follower.drain_after_close = closed_at.elapsed();
        Ok::<_, BenchError>((laps, outcome, writers, follower))
    })?;
    drop(subscriptions);

    // Score every stream against its injected truth (untimed).
    let mut confusion = ConfusionMatrix::default();
    let mut tp_windows = Vec::new();
    let mut followed_recorded = 0u64;
    for stream in &outcome.streams {
        let lane = stream.stream.as_u32();
        let decisions = stream.observer.as_deref().unwrap_or(&[]);
        if lane < followed {
            followed_recorded += decisions.iter().filter(|d| d.recorded()).count() as u64;
        }
        if !stream.is_ok() {
            continue;
        }
        let schedule = input.truth.get(lane as usize).ok_or_else(|| {
            BenchError::Check(format!("stream {lane} delivered events but has no truth"))
        })?;
        let delays = DelayCalibration::from_decisions(schedule, decisions)
            .unwrap_or_else(DelayCalibration::zero);
        let labeled = label_decisions(decisions, &GroundTruth::from_schedule(schedule, delays));
        confusion.merge(&ConfusionMatrix::from_labels(&labeled));
        tp_windows.extend(
            labeled
                .iter()
                .filter(|l| l.label == WindowLabel::TruePositive)
                .map(|l| (lane, l.decision.window_id.index())),
        );
    }
    tp_windows.sort_unstable();
    tp_windows.dedup();

    let lanes_failed = writers.iter().filter(|w| w.is_none()).count() as u64;
    let report = &outcome.aggregate;
    let counts = IngestCounts {
        events_pushed: outcome.events_routed,
        windows_monitored: report.monitored_windows,
        windows_scored: report.lof_evaluations,
        windows_recorded: report.recorder.windows_recorded,
        events_recorded: report.recorder.events_recorded,
        recorded_encoded_bytes: report.recorder.recorded_encoded_bytes,
        frames_written: writers.iter().flatten().map(|w| w.0).sum(),
        bytes_on_disk: writers.iter().flatten().map(|w| w.1).sum(),
        streams_opened: outcome.streams.len() as u64,
        streams_failed: outcome.failed_streams as u64,
        followed_recorded,
        followed_delivered: follower.delivered,
        followed_dropped: follower.dropped,
        confusion: [
            confusion.true_positives,
            confusion.false_positives,
            confusion.false_negatives,
            confusion.true_negatives,
        ],
    };
    let ops = Ops {
        attempted: counts.streams_opened + writers.len() as u64 + followed_recorded,
        failed: counts.streams_failed
            + lanes_failed
            + counts.followed_dropped
            + followed_recorded.saturating_sub(follower.delivered),
    };
    Ok(Ingest {
        wall: laps.at,
        sections: laps.sections,
        counts,
        confusion,
        tp_windows,
        follower,
        handovers,
        ops,
    })
}

/// The single follower thread: drains every subscription until each has
/// ended. Sweeps without blocking; when a sweep finds nothing it blocks
/// briefly on one live subscription so it does not spin on a shared core.
fn follow(
    serve: &ServeHandle,
    subscriptions: &[Subscription],
    tracer: &Tracer,
    writers_closed: &AtomicBool,
) -> Result<FollowerLog, BenchError> {
    let mut log = FollowerLog::default();
    let mut ended = vec![false; subscriptions.len()];
    let mut next_block = 0usize;
    let traced = tracer.is_enabled();
    let take = |log: &mut FollowerLog, sub: &Subscription, timeout: Duration| {
        let mut span = tracer.span("serve.recv");
        let step = sub.recv(timeout)?;
        if let SubscriptionStep::Window(window) = &step {
            log.delivered += 1;
            if traced {
                log.received
                    .push((sub.lane(), window.entry.end_ns, tracer.now_ns()));
            }
        } else {
            span.rename("serve.recv_idle");
        }
        Ok::<_, BenchError>(step)
    };
    while ended.iter().any(|done| !done) {
        let mut progressed = false;
        for (at, sub) in subscriptions.iter().enumerate() {
            while !ended[at] {
                match take(&mut log, sub, Duration::ZERO)? {
                    SubscriptionStep::Window(_) => progressed = true,
                    SubscriptionStep::TimedOut => break,
                    SubscriptionStep::Ended => ended[at] = true,
                }
            }
        }
        if progressed {
            continue;
        }
        let closed = writers_closed.load(Ordering::SeqCst);
        let live: Vec<usize> = (0..subscriptions.len()).filter(|at| !ended[*at]).collect();
        let Some(&at) = live.get(next_block % live.len().max(1)) else {
            break;
        };
        next_block += 1;
        let sub = &subscriptions[at];
        log.behind_max = log.behind_max.max(sub.stats().behind);
        if closed && serve.commit_log(sub.lane()).is_none() {
            // The lane never had a writer (its stream never delivered);
            // nothing will ever arrive.
            ended[at] = true;
            continue;
        }
        match take(&mut log, sub, Duration::from_millis(2))? {
            SubscriptionStep::Ended => ended[at] = true,
            SubscriptionStep::Window(_) | SubscriptionStep::TimedOut => {}
        }
    }
    log.dropped = subscriptions.iter().map(|s| s.stats().dropped).sum();
    Ok(log)
}

/// What one maintenance pass did.
#[derive(Debug)]
pub struct Maintain {
    /// Wall time of `Compactor::compact`.
    pub wall: Duration,
    /// The compactor's own report.
    pub report: CompactionReport,
    /// `.seg` files before the pass.
    pub segments_before: u64,
    /// `.seg` files after the pass.
    pub segments_after: u64,
    /// `.seg` bytes on disk after the pass.
    pub seg_bytes_after: u64,
}

/// Phase 2: merge every lane's segments and re-encode them as `EDV`.
pub fn maintain(dir: &Path, probe: &Probe) -> Result<Maintain, BenchError> {
    let (segments_before, _) = segment_files(dir)?;
    let policy = MaintenancePolicy::merge_below(u64::MAX / 4)
        .with_recompress(CodecId::DeltaVarint)
        .with_compact_workers(COMPACT_WORKERS);
    let compactor = Compactor::new(dir, policy).with_metrics(&probe.read_registry);
    let started = Instant::now();
    let report = {
        let _phase = probe.tracer.phase("maintain");
        let _span = probe.tracer.span("store.compact");
        compactor.compact()?
    };
    let wall = started.elapsed();
    let (segments_after, seg_bytes_after) = segment_files(dir)?;
    Ok(Maintain {
        wall,
        report,
        segments_before,
        segments_after,
        seg_bytes_after,
    })
}

/// Count and total size of the `.seg` files in `dir`.
pub fn segment_files(dir: &Path) -> Result<(u64, u64), BenchError> {
    let mut count = 0;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().ends_with(".seg") {
            count += 1;
            bytes += entry.metadata()?.len();
        }
    }
    Ok((count, bytes))
}

/// One cold pass over the whole store.
#[derive(Debug)]
pub struct ColdPass {
    /// `StoreReader::open` plus `lane_events` of every lane.
    pub wall: Duration,
    /// `wall` in sections: the open and the first sixteenth of the lanes,
    /// then every further sixteenth.
    pub sections: Vec<Duration>,
    /// Lanes replayed.
    pub lanes: u64,
    /// Windows the lane indexes list.
    pub windows: u64,
    /// Events returned.
    pub events: u64,
    /// Order-sensitive hash of every event returned.
    pub hash: u64,
    /// Lane opens attempted / failed.
    pub ops: Ops,
}

/// Phase 3 (one pass): open the store cold and replay every lane.
pub fn cold_replay(dir: &Path, probe: &Probe) -> Result<ColdPass, BenchError> {
    let tracer = &probe.tracer;
    let mut laps = Laps::start();
    let phase = tracer.phase("cold_replay");
    let reader = {
        let _span = tracer.span("store.open");
        StoreReader::open(dir)?
    };
    let lanes = reader.lane_ids();
    let mut replayed = Vec::with_capacity(lanes.len());
    let mut failed = 0;
    let section_len = lanes.len().div_ceil(SECTIONS).max(1);
    for (index, &lane) in lanes.iter().enumerate() {
        let span = tracer.span("store.lane_events");
        match reader.lane_events(lane) {
            Ok(events) => replayed.push(events),
            Err(_) => failed += 1,
        }
        drop(span);
        if (index + 1) % section_len == 0 && index + 1 < lanes.len() {
            laps.lap();
        }
    }
    phase.end();
    laps.lap();

    // Untimed: fold what came back into the hash the checks compare.
    let mut hash = EventHash::new();
    let mut windows = 0;
    for (lane, events) in lanes.iter().zip(&replayed) {
        windows += reader.lane_windows(*lane)?.len() as u64;
        hash.update_lane(*lane, events);
    }
    Ok(ColdPass {
        wall: laps.at,
        sections: laps.sections,
        lanes: lanes.len() as u64,
        windows,
        events: replayed.iter().map(|events| events.len() as u64).sum(),
        hash: hash.finish(),
        ops: Ops {
            attempted: lanes.len() as u64,
            failed,
        },
    })
}

/// FNV-1a over whole fields instead of bytes: an order-sensitive
/// fingerprint of replayed events, cheap enough to run on every pass.
#[derive(Debug, Clone, Copy)]
pub struct EventHash(u64);

impl EventHash {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        EventHash(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::PRIME);
    }

    /// Folds one lane's events in.
    pub fn update_lane(&mut self, lane: u32, events: &[TraceEvent]) {
        self.fold(u64::from(lane));
        for event in events {
            self.fold(event.timestamp.as_nanos());
            self.fold(
                u64::from(event.event_type.as_u16()) << 40
                    | u64::from(event.severity.as_u8()) << 32
                    | u64::from(event.payload),
            );
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for EventHash {
    fn default() -> Self {
        Self::new()
    }
}

/// A frozen view for point queries plus every window it can be asked for.
#[derive(Debug)]
pub struct QuerySet {
    snapshot: Snapshot,
    /// `(lane, window id, events in the window)`.
    targets: Vec<(u32, u64, u32)>,
}

/// Phase 4 set-up: open a snapshot (its segment cache feeds the registry
/// in the traced run) and list the recorded windows.
pub fn open_queries(dir: &Path, probe: &Probe) -> Result<QuerySet, BenchError> {
    let _span = probe.tracer.span("store.snapshot_open");
    let cache = Arc::new(SegmentCache::new(dir).with_metrics(&probe.read_registry));
    let snapshot = StoreReader::open_with_cache(dir, cache)?.snapshot();
    let mut targets = Vec::new();
    for lane in snapshot.lane_ids() {
        for entry in snapshot.lane_windows(lane)? {
            targets.push((lane, entry.window_id, entry.events));
        }
    }
    if targets.is_empty() {
        return Err(BenchError::Check(
            "the store holds no recorded window to query".into(),
        ));
    }
    Ok(QuerySet { snapshot, targets })
}

/// SplitMix64: the seeded generator behind the point-query targets.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl QuerySet {
    /// Phase 4 (one block): `count` `Snapshot::window_events` calls on
    /// targets drawn uniformly from `rng`; appends each call's latency in
    /// nanoseconds to `latencies`.
    pub fn run_block(
        &self,
        count: usize,
        rng: &mut SplitMix,
        probe: &Probe,
        latencies: &mut Vec<u64>,
    ) -> Ops {
        let _phase = probe.tracer.phase("point_query");
        let _span = probe.tracer.span("store.point_query_block");
        let mut failed = 0;
        for _ in 0..count {
            let (lane, id, events) =
                self.targets[(rng.next_u64() % self.targets.len() as u64) as usize];
            let started = Instant::now();
            let found = self.snapshot.window_events(lane, WindowId::new(id));
            latencies.push(started.elapsed().as_nanos() as u64);
            match std::hint::black_box(found) {
                Ok(Some(got)) if got.len() == events as usize => {}
                _ => failed += 1,
            }
        }
        Ops {
            attempted: count as u64,
            failed,
        }
    }
}

/// One repro target, timed.
#[derive(Debug, Clone, Copy)]
pub struct ReproSample {
    /// `extract_window`.
    pub extract: Duration,
    /// `minimize`.
    pub minimize: Duration,
    /// `verify` of the minimized artifact.
    pub verify: Duration,
    /// Oracle re-runs `minimize` made.
    pub oracle_calls: u64,
}

/// Phase 5 over a store opened once.
#[derive(Debug)]
pub struct Repro<'a> {
    reader: StoreReader,
    input: &'a Input,
    /// One sample per target that reproduced.
    pub samples: Vec<ReproSample>,
}

impl<'a> Repro<'a> {
    /// Opens the maintained store for extraction.
    pub fn open(dir: &Path, input: &'a Input) -> Result<Self, BenchError> {
        Ok(Repro {
            reader: StoreReader::open(dir)?,
            input,
            samples: Vec::new(),
        })
    }

    /// Turns one true-positive window into a minimized, verified
    /// regression artifact. Every extracted artifact must verify.
    /// `false`, and no sample, when the stateless oracle does not score
    /// the extracted window anomalous again (`ReproError::NotReproduced`).
    pub fn run_target(
        &mut self,
        lane: u32,
        window: u64,
        probe: &Probe,
    ) -> Result<bool, BenchError> {
        let tracer = &probe.tracer;
        let phase = tracer.phase("repro");
        let started = Instant::now();
        let extracted = {
            let _span = tracer.span("repro.extract");
            extract_window(
                &self.reader,
                lane,
                WindowId::new(window),
                REPRO_CONTEXT,
                &self.input.monitor,
                &self.input.model,
                format!("bench-s{lane}-w{window}"),
            )
        };
        let extract = started.elapsed();
        let artifact = match extracted {
            Ok(artifact) => artifact,
            Err(ReproError::NotReproduced(_)) => return Ok(false),
            Err(err) => return Err(err.into()),
        };
        let started = Instant::now();
        let minimized = {
            let _span = tracer.span("repro.minimize");
            minimize(&artifact, &MinimizeConfig::default())?
        };
        let minimize = started.elapsed();
        let started = Instant::now();
        {
            let _span = tracer.span("repro.verify");
            minimized.artifact.verify()?;
        }
        let verify = started.elapsed();
        phase.end();
        artifact.verify()?;
        self.samples.push(ReproSample {
            extract,
            minimize,
            verify,
            oracle_calls: minimized.report.oracle_calls as u64,
        });
        Ok(true)
    }
}

/// `count` positions evenly strided over `0..len`, starting half a stride
/// in so consecutive calls with different counts rarely coincide.
pub fn strided(len: usize, count: usize) -> Vec<usize> {
    let count = count.min(len);
    (0..count)
        .map(|i| ((2 * i + 1) * len) / (2 * count))
        .collect()
}

/// Follower lag per received window: receive time minus the time the
/// pusher finished handing over the batch holding the window's last
/// event. Windows the final flush closes arrive "before" their batch
/// mark and count as zero.
pub fn follower_lags_ns(ingest: &Ingest) -> Vec<u64> {
    let mut lags = Vec::with_capacity(ingest.follower.received.len());
    for &(lane, window_end, received) in &ingest.follower.received {
        let marks = &ingest.handovers[lane as usize];
        let after = marks.partition_point(|(first_ts, _)| *first_ts < window_end);
        if let Some((_, handed_over)) = after.checked_sub(1).map(|at| marks[at]) {
            lags.push(received.saturating_sub(handed_over));
        }
    }
    lags
}

/// Per-stream event lists of the trace, each stably sorted by timestamp
/// (what a window assembler would hand the recorder).
pub fn events_by_stream(input: &Input) -> BTreeMap<u32, Vec<TraceEvent>> {
    let mut streams: BTreeMap<u32, Vec<TraceEvent>> = BTreeMap::new();
    for item in &input.trace {
        if let FleetEvent::Delivery(stream, event) = item {
            streams.entry(stream.as_u32()).or_default().push(*event);
        }
    }
    for events in streams.values_mut() {
        events.sort_by_key(|event| event.timestamp);
    }
    streams
}
