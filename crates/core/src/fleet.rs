//! The routed-worker engine: the [`FleetReducer`].
//!
//! One [`ReductionSession`] runs per [`StreamId`] the caller pushes, so
//! each stream's windows are judged against the reference on their own,
//! and a stream can join late, leave early, or fail without disturbing
//! its neighbours. Events are hash-routed to a fixed worker thread by
//! stream id and batched onto bounded channels (a full channel blocks the
//! router: backpressure, not unbounded buffering); each worker
//! demultiplexes its batches into lazily created per-stream sessions.
//! A worker reads its batch as runs of consecutive events of one
//! stream, and looks the stream's session up once per run.
//! Streams appear on their first event (late join), are finalised by
//! [`close_stream`](FleetReducer::close_stream) (leave), and a session
//! error aborts only that stream: its outcome records the error and
//! hands back the partial sink and observer, subsequent events for it
//! are counted and discarded, and every other stream keeps reducing. A
//! worker *panic* (a bug in a user sink or observer) loses only that
//! worker's sessions; every other worker's outcomes are still returned.
//!
//! **A close is an item of the batch.** `close_stream` appends a close
//! marker to its worker's pending batch, in push order, and the worker
//! finalises the session at that position: after the stream's earlier
//! events, before any later push to the same id. So the router sends on a
//! channel in one place, when a batch is full or at `finish`, and a fleet
//! of short-lived streams costs one message per full batch however many
//! of them close. The price is that a closed session lives until its
//! batch ships: at most a batch of items later, or at `finish`.
//!
//! **A shard is a shared stream id.** The engine has no routing policy of
//! its own: a session is keyed by the id the caller pushes. To reduce
//! many sources as one shard — the collector shape, where a few sessions
//! absorb a whole fleet's volume — push them under one id
//! (`StreamId::new(source.index() % n)`, or [`shard_of`] for a spread
//! that does not depend on source numbering) and never close it: the
//! shard's session learns from the merged sub-stream and is finalised
//! once, at [`finish`](FleetReducer::finish). One id per source gives
//! per-source sessions whose recorded traces are byte-for-byte what a
//! standalone [`ReductionSession`] would record (property tested in
//! `tests/shard_properties.rs`).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use endurance_obs::{Counter, Gauge, Histogram, Registry};
use trace_model::{fnv1a, CountingSink, EventSink, StreamId, TraceEvent};

use crate::config::MonitorConfig;
use crate::error::CoreError;
use crate::reference::ReferenceModel;
use crate::report::ReductionReport;
use crate::session::{DecisionObserver, NullObserver, ReductionSession};

/// Default items (pushed events and stream closes) accumulated per worker
/// before a channel send.
pub const DEFAULT_BATCH_SIZE: usize = 4096;
/// Default bounded-channel depth, in batches.
pub const DEFAULT_QUEUE_DEPTH: usize = 4;

/// How worker threads build a session for a newly appeared stream.
#[derive(Debug, Clone)]
enum SessionMode {
    /// Every stream learns its own reference from its opening segment.
    Learn(MonitorConfig),
    /// Every stream is scored against one shared, pre-learned model.
    Model(Arc<ReferenceModel>),
}

impl SessionMode {
    fn alpha(&self) -> f64 {
        match self {
            SessionMode::Learn(config) => config.alpha,
            SessionMode::Model(model) => model.config().alpha,
        }
    }
}

/// One item of a worker's batch. A batch is the one message on a worker's
/// channel and keeps push order; `Close` finalises its stream's session
/// at its position in the batch. `Severity`'s niche keeps an item as
/// small as a bare `(StreamId, TraceEvent)`.
#[derive(Clone, Copy)]
enum Item {
    Event(StreamId, TraceEvent),
    Close(StreamId),
}

impl Item {
    fn stream(&self) -> StreamId {
        match self {
            Item::Event(stream, _) | Item::Close(stream) => *stream,
        }
    }
}

/// Fleet-level metric handles (`core_fleet_*`), shared by the router and
/// every worker; detached no-ops unless a registry is installed.
#[derive(Debug, Clone)]
struct FleetMetrics {
    /// `core_fleet_events_total` — events handed to workers, counted per
    /// flushed batch (close items are not events).
    events_total: Counter,
    /// `core_fleet_backpressure_stalls_total` — flushes that found the
    /// target worker's channel full and had to block.
    backpressure_stalls_total: Counter,
    /// `core_fleet_batch_ns` — latency of handing one batch to a worker,
    /// including any backpressure wait: one sample per batch sent.
    batch_ns: Histogram,
    /// `core_fleet_queue_depth` — batches in flight across all worker
    /// channels. Counted before the send, so it never reads negative.
    queue_depth: Gauge,
    /// `core_fleet_streams_open` — live per-stream sessions across all
    /// workers.
    streams_open: Gauge,
}

impl FleetMetrics {
    fn from_registry(registry: &Registry) -> Self {
        FleetMetrics {
            events_total: registry.counter("core_fleet_events_total"),
            backpressure_stalls_total: registry.counter("core_fleet_backpressure_stalls_total"),
            batch_ns: registry.histogram("core_fleet_batch_ns"),
            queue_depth: registry.gauge("core_fleet_queue_depth"),
            streams_open: registry.gauge("core_fleet_streams_open"),
        }
    }
}

/// The result of one stream's reduction session.
///
/// Exactly one outcome is produced per session: one per stream that ever
/// pushed an event, whether the stream was closed explicitly or swept up
/// when the reducer finished, plus one more each time a closed stream was
/// pushed to again.
#[derive(Debug)]
pub struct StreamOutcome<S = CountingSink, O = NullObserver> {
    /// The stream this outcome describes.
    pub stream: StreamId,
    /// Events accepted by the stream's session.
    pub events: u64,
    /// Events discarded after the session failed.
    pub discarded: u64,
    /// The session report; `None` when the session failed.
    pub report: Option<ReductionReport>,
    /// The rendered session error, if the session failed.
    pub error: Option<String>,
    /// The stream's sink (absent only when `finish` itself failed).
    pub sink: Option<S>,
    /// The stream's observer (absent only when `finish` itself failed).
    pub observer: Option<O>,
}

impl<S, O> StreamOutcome<S, O> {
    /// Whether the stream reduced cleanly end to end.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Consolidated result of a fleet run: one [`StreamOutcome`] per session
/// (sorted by stream id) plus the merged aggregate report.
#[derive(Debug)]
pub struct FleetOutcome<S = CountingSink, O = NullObserver> {
    /// All per-stream counters folded into one report (`alpha` carried
    /// over from the configuration; failed streams contribute nothing).
    pub aggregate: ReductionReport,
    /// Per-stream outcomes, sorted by stream id; the sessions of a stream
    /// that was closed and pushed to again stay in session order.
    pub streams: Vec<StreamOutcome<S, O>>,
    /// Number of worker threads that ran.
    pub workers: usize,
    /// Events handed to workers across all streams, the ones a failed
    /// stream discarded included; only the events of a batch lost with a
    /// worker that was already gone are left out.
    pub events_routed: u64,
    /// Number of streams whose session ended in an error.
    pub failed_streams: usize,
    /// One [`CoreError::Shard`] per worker thread that panicked (a bug in
    /// a user sink or observer), carrying the worker index and the panic
    /// message. Such a worker's sessions, sinks and observers are lost
    /// and the events routed to it stay counted in `events_routed`; every
    /// other worker's outcomes are complete.
    pub worker_panics: Vec<CoreError>,
}

impl<S, O> FleetOutcome<S, O> {
    /// Looks up one stream's outcome by id. A stream that was closed and
    /// pushed to again has one outcome per session; this returns the
    /// earliest, and the later ones follow it in
    /// [`streams`](Self::streams).
    pub fn stream(&self, id: StreamId) -> Option<&StreamOutcome<S, O>> {
        let first = self.streams.partition_point(|s| s.stream < id);
        self.streams.get(first).filter(|s| s.stream == id)
    }
}

struct WorkerHandle<S: EventSink, O: DecisionObserver> {
    sender: Option<SyncSender<Vec<Item>>>,
    pending: Vec<Item>,
    handle: JoinHandle<Result<Vec<StreamOutcome<S, O>>, CoreError>>,
}

enum FleetState<S: EventSink, O: DecisionObserver> {
    Idle,
    Running(Vec<WorkerHandle<S, O>>),
}

type SinkFactory<S> = Arc<dyn Fn(StreamId) -> S + Send + Sync>;
type ObserverFactory<O> = Arc<dyn Fn(StreamId) -> O + Send + Sync>;

/// A multi-threaded, per-stream reduction engine for fleet monitoring.
///
/// Feed it `(stream, event)` pairs in arrival order; each stream gets its
/// own [`ReductionSession`] created on first contact and finalised on
/// [`close_stream`](Self::close_stream) (or when the reducer finishes).
/// Worker threads are spawned lazily on the first push and routing is a
/// stable hash of the stream id, so one stream's events always stay in
/// order on one worker.
///
/// ```rust
/// use endurance_core::{FleetReducer, MonitorConfig};
/// use trace_model::{EventTypeId, StreamId, Timestamp, TraceEvent};
///
/// # fn main() -> Result<(), endurance_core::CoreError> {
/// let config = MonitorConfig::builder()
///     .dimensions(1)
///     .reference_duration(std::time::Duration::from_secs(2))
///     .build()?;
/// let mut fleet = FleetReducer::new(config, 2)?;
/// for device in 0..4u32 {
///     for i in 0..25_000u64 {
///         let event = TraceEvent::new(Timestamp::from_micros(i * 200), EventTypeId::new(0), 0);
///         fleet.push(StreamId::new(device), event)?;
///     }
///     fleet.close_stream(StreamId::new(device))?;
/// }
/// let outcome = fleet.finish()?;
/// assert_eq!(outcome.streams.len(), 4);
/// assert_eq!(outcome.failed_streams, 0);
/// # Ok(())
/// # }
/// ```
pub struct FleetReducer<S: EventSink = CountingSink, O: DecisionObserver = NullObserver> {
    mode: SessionMode,
    workers: usize,
    batch_size: usize,
    queue_depth: usize,
    sink_factory: SinkFactory<S>,
    observer_factory: ObserverFactory<O>,
    state: FleetState<S, O>,
    events_routed: u64,
    /// Disabled by default; [`FleetReducer::with_metrics`] swaps in an
    /// enabled registry for the router, workers and per-stream sessions.
    registry: Arc<Registry>,
    metrics: FleetMetrics,
}

impl<S: EventSink, O: DecisionObserver> std::fmt::Debug for FleetReducer<S, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetReducer")
            .field("workers", &self.workers)
            .field("batch_size", &self.batch_size)
            .field("events_routed", &self.events_routed)
            .field("running", &matches!(self.state, FleetState::Running(_)))
            .finish_non_exhaustive()
    }
}

impl FleetReducer {
    /// Creates a fleet reducer where every stream learns its own reference
    /// from its opening segment.
    ///
    /// Prefer [`from_model`](Self::from_model) for real fleets: short-lived
    /// streams rarely contain a clean learnable prefix.
    pub fn new(config: MonitorConfig, workers: usize) -> Result<Self, CoreError> {
        config.validate()?;
        Self::with_mode(SessionMode::Learn(config), workers)
    }

    /// Creates a fleet reducer that scores every stream against one shared
    /// pre-learned reference model.
    pub fn from_model(model: ReferenceModel, workers: usize) -> Result<Self, CoreError> {
        model.config().validate()?;
        Self::with_mode(SessionMode::Model(Arc::new(model)), workers)
    }

    fn with_mode(mode: SessionMode, workers: usize) -> Result<Self, CoreError> {
        if workers == 0 {
            return Err(CoreError::InvalidConfig(
                "a fleet reducer needs at least one worker".into(),
            ));
        }
        let registry = Registry::disabled();
        let metrics = FleetMetrics::from_registry(&registry);
        Ok(FleetReducer {
            mode,
            workers,
            batch_size: DEFAULT_BATCH_SIZE,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            sink_factory: Arc::new(|_| CountingSink::new()),
            observer_factory: Arc::new(|_| NullObserver),
            state: FleetState::Idle,
            events_routed: 0,
            registry,
            metrics,
        })
    }
}

impl<S, O> FleetReducer<S, O>
where
    S: EventSink + Send + 'static,
    O: DecisionObserver + Send + 'static,
{
    /// Replaces the per-stream sink factory. The factory is called once
    /// per stream, on the worker thread, when the stream first appears.
    ///
    /// # Panics
    ///
    /// Panics if events have already been pushed.
    pub fn with_sinks<S2>(
        self,
        factory: impl Fn(StreamId) -> S2 + Send + Sync + 'static,
    ) -> FleetReducer<S2, O>
    where
        S2: EventSink + Send + 'static,
    {
        assert!(
            matches!(self.state, FleetState::Idle),
            "sinks must be installed before any event is pushed"
        );
        FleetReducer {
            mode: self.mode,
            workers: self.workers,
            batch_size: self.batch_size,
            queue_depth: self.queue_depth,
            sink_factory: Arc::new(factory),
            observer_factory: self.observer_factory,
            state: FleetState::Idle,
            events_routed: 0,
            registry: self.registry,
            metrics: self.metrics,
        }
    }

    /// Replaces the per-stream observer factory. Called once per stream,
    /// on the worker thread, when the stream first appears.
    ///
    /// # Panics
    ///
    /// Panics if events have already been pushed.
    pub fn with_observers<O2>(
        self,
        factory: impl Fn(StreamId) -> O2 + Send + Sync + 'static,
    ) -> FleetReducer<S, O2>
    where
        O2: DecisionObserver + Send + 'static,
    {
        assert!(
            matches!(self.state, FleetState::Idle),
            "observers must be installed before any event is pushed"
        );
        FleetReducer {
            mode: self.mode,
            workers: self.workers,
            batch_size: self.batch_size,
            queue_depth: self.queue_depth,
            sink_factory: self.sink_factory,
            observer_factory: Arc::new(factory),
            state: FleetState::Idle,
            events_routed: 0,
            registry: self.registry,
            metrics: self.metrics,
        }
    }

    /// Installs a metrics registry on the router, the workers and every
    /// per-stream session: the router reports `core_fleet_events_total`,
    /// `core_fleet_batch_ns`, `core_fleet_backpressure_stalls_total` and
    /// `core_fleet_queue_depth`, the workers keep
    /// `core_fleet_streams_open` current, and the per-stream sessions
    /// report the `core_session_*` family, aggregated across the fleet.
    ///
    /// # Panics
    ///
    /// Panics if events have already been pushed.
    pub fn with_metrics(mut self, registry: Arc<Registry>) -> Self {
        assert!(
            matches!(self.state, FleetState::Idle),
            "metrics must be installed before any event is pushed"
        );
        self.metrics = FleetMetrics::from_registry(&registry);
        self.registry = registry;
        self
    }

    /// Overrides the channel batch size: items per message, where an item
    /// is one pushed event or one [`close_stream`](Self::close_stream).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero or events have already been pushed.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be at least 1");
        assert!(
            matches!(self.state, FleetState::Idle),
            "batch size must be set before any event is pushed"
        );
        self.batch_size = batch_size;
        self
    }

    /// Events handed to workers so far across all streams (see
    /// [`FleetOutcome::events_routed`]).
    pub fn events_routed(&self) -> u64 {
        self.events_routed
    }

    /// Routes one event to its stream's session.
    ///
    /// The first push spawns the worker threads. Blocks when the target
    /// worker's channel is full (backpressure). A session error inside a
    /// worker does **not** surface here — it is confined to that stream
    /// and reported in its [`StreamOutcome`]; `push` only fails with
    /// [`CoreError::Shard`] when a worker thread itself is gone (it
    /// panicked) or could not be spawned.
    pub fn push(&mut self, stream: StreamId, event: TraceEvent) -> Result<(), CoreError> {
        self.enqueue(Item::Event(stream, event))
    }

    /// Declares a stream finished: its session is finalised and its
    /// outcome becomes available once the reducer finishes.
    ///
    /// The close is queued behind the stream's pushed events in its
    /// worker's batch; like a push, it sends only a batch it fills, never
    /// a partial one. The session is finalised when that batch reaches
    /// the worker — at most [`with_batch_size`](Self::with_batch_size)
    /// items later, or at [`finish`](Self::finish) — after the stream's
    /// earlier events and before any later push to the same id. Closing
    /// a stream that never pushed an event, closing it twice, or closing
    /// one that already failed is a no-op on the worker. Pushing to a
    /// closed stream starts a *new* session for the same id, with its own
    /// [`StreamOutcome`].
    ///
    /// Fails under the same conditions as [`push`](Self::push). A worker
    /// that dies while the close waits in its batch is reported when that
    /// batch is sent — by the `push` or `close_stream` that fills it, or
    /// in [`FleetOutcome::worker_panics`] — not by this call.
    pub fn close_stream(&mut self, stream: StreamId) -> Result<(), CoreError> {
        self.enqueue(Item::Close(stream))
    }

    /// Appends one item to its stream's worker batch, sending the batch
    /// once it is full. Always inlined: `push` is the per-event hot path,
    /// and out of line every push would be a call.
    #[inline(always)]
    fn enqueue(&mut self, item: Item) -> Result<(), CoreError> {
        if matches!(self.state, FleetState::Idle) {
            self.start()?;
        }
        let FleetState::Running(workers) = &mut self.state else {
            unreachable!("start() always leaves the engine running");
        };
        let index = route(item.stream(), workers.len());
        let worker = &mut workers[index];
        if worker.sender.is_none() {
            return Err(worker_gone(index));
        }
        if matches!(item, Item::Event(..)) {
            self.events_routed += 1;
        }
        worker.pending.push(item);
        if worker.pending.len() >= self.batch_size {
            if let Err(lost) = flush(worker, &self.metrics, self.batch_size) {
                self.events_routed -= lost;
                return Err(worker_gone(index));
            }
        }
        Ok(())
    }

    /// Flushes everything, finalises the remaining open streams, joins
    /// the workers and consolidates the per-stream outcomes.
    ///
    /// Streams that were never explicitly closed are finalised in id
    /// order when the channels drain. Per-stream session errors do *not*
    /// fail the fleet — they are reported in the affected stream's
    /// outcome — and neither does a panicked worker: its sessions are
    /// lost and it is listed in [`FleetOutcome::worker_panics`], while
    /// every other worker's outcomes are returned intact. `Err` here
    /// means session *construction* failed (a configuration problem that
    /// would affect every stream identically).
    pub fn finish(mut self) -> Result<FleetOutcome<S, O>, CoreError> {
        let alpha = self.mode.alpha();
        let state = std::mem::replace(&mut self.state, FleetState::Idle);
        let mut handles = match state {
            FleetState::Idle => {
                return Ok(FleetOutcome {
                    aggregate: ReductionReport::empty(alpha),
                    streams: Vec::new(),
                    workers: self.workers,
                    events_routed: 0,
                    failed_streams: 0,
                    worker_panics: Vec::new(),
                });
            }
            FleetState::Running(handles) => handles,
        };

        // Close every channel first so all workers wind down in parallel,
        // then join. A failed flush here means the worker is already gone;
        // its join result carries the panic.
        for worker in &mut handles {
            if let Err(lost) = flush(worker, &self.metrics, 0) {
                self.events_routed -= lost;
            }
            worker.sender = None;
        }

        let mut streams: Vec<StreamOutcome<S, O>> = Vec::new();
        let mut worker_panics = Vec::new();
        let mut first_error = None;
        for (index, worker) in handles.into_iter().enumerate() {
            match worker.handle.join() {
                Err(payload) => worker_panics.push(CoreError::Shard {
                    shard: index,
                    message: panic_summary(payload.as_ref()),
                }),
                Ok(Err(err)) => {
                    first_error.get_or_insert(err);
                }
                Ok(Ok(outcomes)) => streams.extend(outcomes),
            }
        }
        if let Some(err) = first_error {
            return Err(err);
        }

        streams.sort_by_key(|outcome| outcome.stream.as_u32());
        let mut aggregate = ReductionReport::empty(alpha);
        for outcome in &streams {
            if let Some(report) = &outcome.report {
                aggregate.merge(report);
            }
        }
        let failed_streams = streams.iter().filter(|s| !s.is_ok()).count();
        Ok(FleetOutcome {
            aggregate,
            streams,
            workers: self.workers,
            events_routed: self.events_routed,
            failed_streams,
            worker_panics,
        })
    }

    /// Spawns the workers; called by the first push or close only.
    #[cold]
    fn start(&mut self) -> Result<(), CoreError> {
        let mut handles = Vec::with_capacity(self.workers);
        for index in 0..self.workers {
            let (sender, receiver) = sync_channel(self.queue_depth);
            let mode = self.mode.clone();
            let sinks = Arc::clone(&self.sink_factory);
            let observers = Arc::clone(&self.observer_factory);
            let registry = Arc::clone(&self.registry);
            let metrics = self.metrics.clone();
            let spawned = thread::Builder::new()
                .name(format!("fleet-worker-{index}"))
                .spawn(move || run_worker(mode, sinks, observers, receiver, registry, metrics));
            let handle = match spawned {
                Ok(handle) => handle,
                Err(err) => {
                    // Closing the channels of the workers already running
                    // ends them; the engine stays idle, so a later push
                    // retries the spawn.
                    for WorkerHandle { sender, handle, .. } in handles {
                        drop(sender);
                        let _ = handle.join();
                    }
                    return Err(CoreError::Shard {
                        shard: index,
                        message: format!("failed to spawn fleet worker thread: {err}"),
                    });
                }
            };
            handles.push(WorkerHandle {
                sender: Some(sender),
                pending: Vec::with_capacity(self.batch_size),
                handle,
            });
        }
        self.state = FleetState::Running(handles);
        Ok(())
    }
}

/// The shard, as a session id, that `stream` falls into when a fleet is
/// folded onto `shards` shared ids: the same FNV-1a hash of the stream id
/// that routes ids to workers, so the spread does not depend on how
/// sources are numbered and a source always lands in the same shard.
/// Push under the returned id to reduce every source of a shard in one
/// session (see the module docs).
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard_of(stream: StreamId, shards: usize) -> StreamId {
    assert!(shards > 0, "a fleet folds onto at least one shard");
    // Ids are 32-bit, so more shards than that cannot be told apart.
    let shards = shards.min(u32::MAX as usize);
    StreamId::new(route(stream, shards) as u32)
}

/// Stable stream→worker routing: FNV-1a over the stream id, so a
/// stream's events always land on the same worker in order.
fn route(stream: StreamId, workers: usize) -> usize {
    (fnv1a(&stream.as_u32().to_le_bytes()) % workers as u64) as usize
}

/// Renders a worker's panic payload, preserving `panic!` string messages
/// (the common case for bugs in user sinks/observers).
fn panic_summary(payload: &(dyn std::any::Any + Send)) -> String {
    let detail = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned());
    match detail {
        Some(detail) => format!("fleet worker thread panicked: {detail}"),
        None => "fleet worker thread panicked".into(),
    }
}

fn worker_gone(index: usize) -> CoreError {
    CoreError::Shard {
        shard: index,
        message: "fleet worker is no longer accepting events (it panicked or failed)".into(),
    }
}

/// Sends the worker's pending batch, leaving an empty one of `capacity`
/// behind: the one place the router sends on a channel. On failure the
/// sender is dropped and the error carries how many routed events the
/// batch took with it, so the caller can retract them.
fn flush<S: EventSink, O: DecisionObserver>(
    worker: &mut WorkerHandle<S, O>,
    metrics: &FleetMetrics,
    capacity: usize,
) -> Result<(), u64> {
    if worker.pending.is_empty() {
        return Ok(());
    }
    let events = worker
        .pending
        .iter()
        .filter(|item| matches!(item, Item::Event(..)))
        .count() as u64;
    let Some(sender) = worker.sender.as_ref() else {
        worker.pending.clear();
        return Err(events);
    };
    let batch = std::mem::replace(&mut worker.pending, Vec::with_capacity(capacity));
    let batch_span = metrics.batch_ns.span();
    // In flight from before the send: the worker may receive the batch
    // and count it out before this thread runs again.
    metrics.queue_depth.add(1);
    // Non-blocking first: a full channel is the worker falling behind,
    // worth counting as a stall before blocking on it (backpressure).
    let sent = match sender.try_send(batch) {
        Ok(()) => true,
        Err(TrySendError::Full(batch)) => {
            metrics.backpressure_stalls_total.inc();
            sender.send(batch).is_ok()
        }
        Err(TrySendError::Disconnected(_)) => false,
    };
    if !sent {
        metrics.queue_depth.sub(1);
        worker.sender = None;
        return Err(events);
    }
    batch_span.end();
    metrics.events_total.add(events);
    Ok(())
}

fn build_session(mode: &SessionMode) -> Result<ReductionSession, CoreError> {
    match mode {
        SessionMode::Learn(config) => ReductionSession::new(config.clone()),
        SessionMode::Model(model) => ReductionSession::from_model(model.as_ref().clone()),
    }
}

fn finish_stream<S: EventSink, O: DecisionObserver>(
    stream: StreamId,
    events: u64,
    session: ReductionSession<S, O>,
) -> StreamOutcome<S, O> {
    match session.finish() {
        Ok(outcome) => StreamOutcome {
            stream,
            events,
            discarded: 0,
            report: Some(outcome.report),
            error: None,
            sink: Some(outcome.sink),
            observer: Some(outcome.observer),
        },
        Err(err) => StreamOutcome {
            stream,
            events,
            discarded: 0,
            report: None,
            error: Some(err.to_string()),
            sink: None,
            observer: None,
        },
    }
}

/// Takes the next item off `items` if it is an event of `stream`.
#[inline(always)]
fn take_event(items: &mut &[Item], stream: StreamId) -> Option<TraceEvent> {
    match items.split_first() {
        Some((&Item::Event(next, event), rest)) if next == stream => {
            *items = rest;
            Some(event)
        }
        _ => None,
    }
}

fn run_worker<S, O>(
    mode: SessionMode,
    sinks: SinkFactory<S>,
    observers: ObserverFactory<O>,
    receiver: Receiver<Vec<Item>>,
    registry: Arc<Registry>,
    metrics: FleetMetrics,
) -> Result<Vec<StreamOutcome<S, O>>, CoreError>
where
    S: EventSink + Send + 'static,
    O: DecisionObserver + Send + 'static,
{
    let mut live: HashMap<u32, (ReductionSession<S, O>, u64)> = HashMap::new();
    let mut done: Vec<StreamOutcome<S, O>> = Vec::new();
    // Streams whose session failed: index into `done`, for counting
    // discarded events.
    let mut dead: HashMap<u32, usize> = HashMap::new();

    for batch in receiver {
        metrics.queue_depth.sub(1);
        let mut items = batch.as_slice();
        while let Some((&item, rest)) = items.split_first() {
            items = rest;
            let (stream, first) = match item {
                Item::Event(stream, event) => (stream, event),
                Item::Close(stream) => {
                    if let Some((session, events)) = live.remove(&stream.as_u32()) {
                        metrics.streams_open.sub(1);
                        done.push(finish_stream(stream, events, session));
                    }
                    continue;
                }
            };
            // A run: this event and every event of the same stream right
            // behind it. The session is looked up once for all of them.
            let id = stream.as_u32();
            if let Some(&index) = dead.get(&id) {
                let mut discarded = 1;
                while take_event(&mut items, stream).is_some() {
                    discarded += 1;
                }
                done[index].discarded += discarded;
                continue;
            }
            let (session, events) = match live.entry(id) {
                Entry::Occupied(entry) => entry.into_mut(),
                Entry::Vacant(slot) => {
                    // Construction errors are configuration-level and
                    // deterministic: fail the whole worker rather than
                    // silently failing every stream one by one.
                    let session = build_session(&mode)?
                        .with_metrics(Arc::clone(&registry))
                        .with_sink(sinks(stream))
                        .with_observer(observers(stream));
                    metrics.streams_open.add(1);
                    slot.insert((session, 0))
                }
            };
            // The failing event counts as accepted; the rest of the run is
            // discarded through `dead`, like every later event of the
            // stream.
            let mut event = first;
            let failure = loop {
                *events += 1;
                if let Err(err) = session.push(event) {
                    break Some(err);
                }
                match take_event(&mut items, stream) {
                    Some(next) => event = next,
                    None => break None,
                }
            };
            if let Some(err) = failure {
                let (session, events) = live.remove(&id).expect("present");
                let (sink, observer) = session.abort();
                metrics.streams_open.sub(1);
                dead.insert(id, done.len());
                done.push(StreamOutcome {
                    stream,
                    events,
                    discarded: 0,
                    report: None,
                    error: Some(err.to_string()),
                    sink: Some(sink),
                    observer: Some(observer),
                });
            }
        }
    }

    // Channel closed: finalise streams that never got an explicit close,
    // in id order for determinism.
    let mut rest: Vec<_> = live.into_iter().collect();
    rest.sort_by_key(|(id, _)| *id);
    for (id, (session, events)) in rest {
        metrics.streams_open.sub(1);
        done.push(finish_stream(StreamId::new(id), events, session));
    }
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DriftGateConfig, WindowStrategy};
    use std::time::Duration;
    use trace_model::{EventTypeId, MemorySink, Timestamp, TraceError};

    fn test_config() -> MonitorConfig {
        MonitorConfig::builder()
            .dimensions(2)
            .window(WindowStrategy::Count(64))
            .reference_duration(Duration::from_millis(200))
            .build()
            .expect("valid test config")
    }

    fn steady_event(i: u64) -> TraceEvent {
        TraceEvent::new(
            Timestamp::from_micros(i * 100),
            EventTypeId::new((i % 2) as u16),
            0,
        )
    }

    #[test]
    fn per_stream_sessions_and_sorted_outcomes() {
        let mut fleet = FleetReducer::new(test_config(), 3).unwrap();
        // Push streams in scrambled order; each gets its own session.
        for i in 0..40_000u64 {
            for device in [7u32, 2, 11, 4] {
                fleet.push(StreamId::new(device), steady_event(i)).unwrap();
            }
        }
        for device in [11u32, 7] {
            fleet.close_stream(StreamId::new(device)).unwrap();
        }
        let outcome = fleet.finish().unwrap();
        let ids: Vec<u32> = outcome.streams.iter().map(|s| s.stream.as_u32()).collect();
        assert_eq!(ids, vec![2, 4, 7, 11], "sorted, one outcome per stream");
        assert_eq!(outcome.failed_streams, 0);
        assert_eq!(outcome.events_routed, 160_000);
        for stream in &outcome.streams {
            assert_eq!(stream.events, 40_000);
            assert!(stream.report.is_some());
            assert!(stream.sink.is_some());
        }
        assert_eq!(
            outcome.aggregate.monitored_windows + outcome.aggregate.reference_windows,
            outcome
                .streams
                .iter()
                .filter_map(|s| s.report.as_ref())
                .map(|r| r.monitored_windows + r.reference_windows)
                .sum::<u64>()
        );
        assert!(outcome.stream(StreamId::new(7)).is_some());
        assert!(outcome.stream(StreamId::new(3)).is_none());
    }

    #[test]
    fn session_failure_is_confined_to_one_stream() {
        // Stream 1's events are 100× sparser, so its reference segment
        // yields too few windows to learn from and its session fails with
        // `InvalidReference` mid-stream; stream 0 must finish cleanly.
        let mut fleet = FleetReducer::new(test_config(), 1)
            .unwrap()
            .with_batch_size(64);
        let bad = StreamId::new(1);
        let good = StreamId::new(0);
        for i in 0..20_000u64 {
            fleet.push(good, steady_event(i)).unwrap();
            let sparse = TraceEvent::new(
                Timestamp::from_micros(i * 10_000),
                EventTypeId::new((i % 2) as u16),
                0,
            );
            fleet.push(bad, sparse).unwrap();
        }
        let outcome = fleet.finish().unwrap();
        assert_eq!(outcome.streams.len(), 2);
        assert_eq!(outcome.failed_streams, 1);
        let good_outcome = outcome.stream(good).unwrap();
        assert!(good_outcome.is_ok());
        assert_eq!(good_outcome.events, 20_000);
        let bad_outcome = outcome.stream(bad).unwrap();
        assert!(!bad_outcome.is_ok());
        assert!(bad_outcome.report.is_none());
        assert!(bad_outcome.error.is_some());
        // Events after the failure were counted as discarded, not lost,
        // and routed all the same.
        assert_eq!(bad_outcome.events + bad_outcome.discarded, 20_000);
        assert!(bad_outcome.discarded > 0);
        assert_eq!(
            outcome.events_routed,
            good_outcome.events + bad_outcome.events + bad_outcome.discarded
        );
        // The aborted stream still hands back its sink.
        assert!(bad_outcome.sink.is_some());
    }

    #[test]
    fn close_stream_finalises_early_and_reopening_is_a_new_session() {
        let mut fleet = FleetReducer::new(test_config(), 2).unwrap();
        let device = StreamId::new(5);
        for i in 0..20_000u64 {
            fleet.push(device, steady_event(i)).unwrap();
        }
        fleet.close_stream(device).unwrap();
        // Closing twice (or closing an unknown stream) is harmless.
        fleet.close_stream(device).unwrap();
        fleet.close_stream(StreamId::new(99)).unwrap();
        // Pushing after the close opens a second session under the same
        // id (its clock restarts, so it learns its own reference).
        for i in 0..30_000u64 {
            fleet.push(device, steady_event(i)).unwrap();
        }
        let outcome = fleet.finish().unwrap();
        assert_eq!(outcome.events_routed, 50_000);
        let sessions: Vec<u64> = outcome.streams.iter().map(|s| s.events).collect();
        assert_eq!(sessions, vec![20_000, 30_000], "one outcome per session");
        assert!(outcome
            .streams
            .iter()
            .all(|s| s.stream == device && s.is_ok()));
        // The lookup returns the earliest session of a reopened stream.
        assert_eq!(outcome.stream(device).unwrap().events, 20_000);
    }

    #[test]
    fn sources_under_one_shared_id_reduce_as_one_shard_finalised_at_finish() {
        // Three sources folded onto one id, never closed: one session sees
        // the merged sub-stream, exactly like a standalone session would.
        let shard = StreamId::new(0);
        let mut fleet = FleetReducer::new(test_config(), 2)
            .unwrap()
            .with_batch_size(100)
            .with_sinks(|_| MemorySink::new())
            .with_observers(|_| Vec::new());
        let mut serial = ReductionSession::new(test_config())
            .unwrap()
            .with_observer(Vec::new());
        for i in 0..30_000u64 {
            for source in 0..3u32 {
                let mut event = steady_event(i);
                event.payload = source;
                fleet.push(shard, event).unwrap();
                serial.push(event).unwrap();
            }
        }
        let outcome = fleet.finish().unwrap();
        let serial = serial.finish().unwrap();
        assert_eq!(outcome.streams.len(), 1, "finalised once, at finish");
        let only = &outcome.streams[0];
        assert_eq!((only.stream, only.events), (shard, 90_000));
        assert_eq!(only.report.as_ref(), Some(&serial.report));
        assert_eq!(only.observer.as_ref(), Some(&serial.observer));
        assert_eq!(only.sink.as_ref().unwrap().events(), serial.sink.events());
    }

    #[test]
    fn shard_of_pins_every_source_to_one_of_n_ids() {
        for shards in 1..=5usize {
            let mut hit = vec![false; shards];
            for source in 0..64u32 {
                let id = shard_of(StreamId::new(source), shards);
                assert_eq!(id, shard_of(StreamId::new(source), shards), "stable");
                hit[id.index()] = true;
            }
            assert!(hit.iter().all(|h| *h), "64 sources reach all {shards} ids");
        }
    }

    /// Records almost every window (`alpha` 1.0, no gate), so a sink that
    /// misbehaves after a few records does so early in the run.
    fn recording_config() -> MonitorConfig {
        MonitorConfig::builder()
            .dimensions(3)
            .k(10)
            .alpha(1.0)
            .drift_gate(DriftGateConfig::Disabled)
            .reference_duration(Duration::from_secs(2))
            .build()
            .unwrap()
    }

    /// `sources` interleaved 5 kHz streams covering `total` of trace time
    /// (200 events per 40 ms window).
    fn tagged_stream(
        sources: u32,
        total: Duration,
    ) -> impl Iterator<Item = (StreamId, TraceEvent)> {
        let tick_nanos = 200_000u64;
        let ticks = Timestamp::from(total).as_nanos() / tick_nanos;
        (0..ticks).flat_map(move |i| {
            (0..sources).map(move |s| {
                let at = Timestamp::from_nanos(i * tick_nanos);
                let event = TraceEvent::new(at, EventTypeId::new((i % 3) as u16), s);
                (StreamId::new(s), event)
            })
        })
    }

    /// A sink that, when `armed`, fails (or panics: a bug in user code,
    /// not an I/O failure) on the first record after `records_left`.
    #[derive(Debug)]
    struct FaultySink {
        events: usize,
        records_left: usize,
        armed: bool,
        panics: bool,
    }

    impl EventSink for FaultySink {
        fn record(&mut self, events: &[TraceEvent]) -> Result<(), TraceError> {
            if self.armed && self.records_left == 0 {
                if self.panics {
                    panic!("sink bug");
                }
                return Err(TraceError::InvalidWindowConfig(
                    "sink storage failed".into(),
                ));
            }
            self.records_left = self.records_left.saturating_sub(1);
            self.events += events.len();
            Ok(())
        }

        fn recorded_events(&self) -> usize {
            self.events
        }
    }

    #[test]
    fn a_failing_sink_fails_its_session_and_hands_back_what_it_recorded() {
        let mut fleet = FleetReducer::new(recording_config(), 3)
            .unwrap()
            .with_batch_size(64)
            .with_sinks(|stream| FaultySink {
                events: 0,
                records_left: 2,
                armed: stream.index() == 1,
                panics: false,
            })
            .with_observers(|_| Vec::new());
        // A session error never surfaces in `push`.
        for (stream, event) in tagged_stream(3, Duration::from_secs(20)) {
            fleet.push(stream, event).unwrap();
        }
        let outcome = fleet.finish().unwrap();
        assert_eq!(outcome.failed_streams, 1);
        assert!(outcome.worker_panics.is_empty());
        for stream in &outcome.streams {
            let sink = stream.sink.as_ref().expect("every sink is handed back");
            let decisions = stream.observer.as_ref().expect("and every observer");
            assert_eq!(stream.events + stream.discarded, 100_000, "conserved");
            if stream.stream.index() == 1 {
                assert!(stream.report.is_none());
                let error = stream.error.as_deref().unwrap();
                assert!(error.contains("sink storage failed"), "{error}");
                assert!(stream.discarded > 0);
                // Two windows of 200 events (5 kHz x 40 ms) were recorded
                // before the sink fault.
                assert_eq!(sink.recorded_events(), 2 * 200);
                assert!(decisions.len() >= 2);
            } else {
                assert!(stream.is_ok());
                assert_eq!(stream.discarded, 0);
                assert!(stream.report.is_some());
                assert!(sink.recorded_events() > 2 * 200);
            }
        }
    }

    #[test]
    fn a_panicking_worker_loses_only_its_own_streams() {
        const WORKERS: usize = 3;
        let doomed = route(StreamId::new(1), WORKERS);
        let mut fleet = FleetReducer::new(recording_config(), WORKERS)
            .unwrap()
            .with_batch_size(64)
            .with_sinks(|stream| FaultySink {
                events: 0,
                records_left: 1,
                armed: stream.index() == 1,
                panics: true,
            });
        // Once the worker is gone, pushes routed to it are refused; every
        // other worker keeps receiving its full streams.
        let mut refused = 0u64;
        for (stream, event) in tagged_stream(3, Duration::from_secs(15)) {
            match fleet.push(stream, event) {
                Ok(()) => {}
                Err(CoreError::Shard { shard, .. }) => {
                    assert_eq!((shard, route(stream, WORKERS)), (doomed, doomed));
                    refused += 1;
                }
                Err(other) => panic!("unexpected push error: {other}"),
            }
        }
        assert!(refused > 0);
        assert!(matches!(
            fleet.close_stream(StreamId::new(1)),
            Err(CoreError::Shard { shard, .. }) if shard == doomed
        ));

        let outcome = fleet.finish().expect("a panic does not fail the fleet");
        // The panic payload is preserved for diagnosis.
        assert_eq!(outcome.worker_panics.len(), 1);
        let CoreError::Shard { shard, message } = &outcome.worker_panics[0] else {
            panic!("worker panics are reported as CoreError::Shard");
        };
        assert_eq!(*shard, doomed);
        assert!(message.contains("panicked"), "{message}");
        assert!(message.contains("sink bug"), "{message}");
        // Streams on the surviving workers are handed back complete.
        let survivors: Vec<u32> = (0..3u32)
            .filter(|s| route(StreamId::new(*s), WORKERS) != doomed)
            .collect();
        assert!(!survivors.is_empty());
        let ids: Vec<u32> = outcome.streams.iter().map(|s| s.stream.as_u32()).collect();
        assert_eq!(ids, survivors);
        for stream in &outcome.streams {
            assert!(stream.is_ok());
            assert_eq!(stream.events, 75_000);
            assert!(stream.sink.as_ref().unwrap().recorded_events() > 0);
        }
        assert!(outcome.aggregate.monitored_windows > 0);
    }

    #[test]
    fn shared_model_mode_scores_streams_against_one_reference() {
        // Learn a model from one clean stream, then score two fresh
        // streams against it; neither needs a learnable prefix.
        let mut learner = crate::session::ReductionSession::new(test_config()).unwrap();
        for i in 0..30_000u64 {
            learner.push(steady_event(i)).unwrap();
        }
        let model = learner.model().expect("learning finished").clone();
        let shared_reference = model.reference_windows() as u64;

        let mut fleet = FleetReducer::from_model(model, 2).unwrap();
        for i in 0..5_000u64 {
            fleet.push(StreamId::new(0), steady_event(i)).unwrap();
            fleet.push(StreamId::new(1), steady_event(i)).unwrap();
        }
        let outcome = fleet.finish().unwrap();
        assert_eq!(outcome.streams.len(), 2);
        assert_eq!(outcome.failed_streams, 0);
        for stream in &outcome.streams {
            let report = stream.report.as_ref().unwrap();
            // No per-stream learning: the report carries the shared
            // model's reference count and every window is monitored.
            assert_eq!(report.reference_windows, shared_reference);
            assert!(report.monitored_windows > 0);
        }
    }

    #[test]
    fn metrics_track_fleet_batches_and_open_streams() {
        let registry = Registry::new();
        let mut fleet = FleetReducer::new(test_config(), 2)
            .unwrap()
            .with_batch_size(256)
            .with_metrics(Arc::clone(&registry));
        for i in 0..20_000u64 {
            for device in 0..3u32 {
                fleet.push(StreamId::new(device), steady_event(i)).unwrap();
            }
        }
        // Mid-run: all three streams have live sessions.
        assert_eq!(
            registry.snapshot().gauge("core_fleet_streams_open"),
            Some(3)
        );
        fleet.close_stream(StreamId::new(1)).unwrap();
        let outcome = fleet.finish().unwrap();
        assert_eq!(outcome.failed_streams, 0);

        let snapshot = registry.snapshot();
        // Every accepted event was eventually handed to a worker.
        assert_eq!(
            snapshot.counter("core_fleet_events_total"),
            Some(outcome.events_routed)
        );
        // Channels drained, every stream finalised.
        assert_eq!(snapshot.gauge("core_fleet_queue_depth"), Some(0));
        assert_eq!(snapshot.gauge("core_fleet_streams_open"), Some(0));
        // The per-stream sessions carried the registry too.
        assert_eq!(
            snapshot.counter("core_session_events_total"),
            Some(outcome.events_routed)
        );
        assert!(snapshot.histogram("core_fleet_batch_ns").unwrap().count > 0);
    }

    #[test]
    fn a_churning_fleet_sends_one_message_per_full_batch() {
        // The churn shape: many short streams, each closed after its last
        // event. Closes ride in the batches, so the router sends a batch
        // only when one fills, plus one partial batch per worker at finish.
        const STREAMS: u32 = 1_000;
        const EVENTS: u64 = 20;
        const WORKERS: usize = 2;
        const BATCH: usize = 4_096;
        let registry = Registry::new();
        let mut fleet = FleetReducer::from_model(steady_model(), WORKERS)
            .unwrap()
            .with_batch_size(BATCH)
            .with_metrics(Arc::clone(&registry));
        for device in 0..STREAMS {
            for i in 0..EVENTS {
                fleet.push(StreamId::new(device), steady_event(i)).unwrap();
            }
            fleet.close_stream(StreamId::new(device)).unwrap();
        }
        let outcome = fleet.finish().unwrap();
        assert_eq!(outcome.streams.len(), STREAMS as usize);
        assert_eq!(outcome.events_routed, u64::from(STREAMS) * EVENTS);

        let snapshot = registry.snapshot();
        let items = u64::from(STREAMS) * (EVENTS + 1);
        let most = items.div_ceil(BATCH as u64) + WORKERS as u64;
        let sent = snapshot.histogram("core_fleet_batch_ns").unwrap().count;
        assert!(
            sent <= most,
            "{sent} messages for {items} items, at most {most}"
        );
        // Close items are not events.
        assert_eq!(
            snapshot.counter("core_fleet_events_total"),
            Some(outcome.events_routed)
        );
    }

    /// A model learned from 3 s of `steady_event`s.
    fn steady_model() -> ReferenceModel {
        let mut learner = ReductionSession::new(test_config()).unwrap();
        for i in 0..30_000u64 {
            learner.push(steady_event(i)).unwrap();
        }
        learner.model().expect("learning finished").clone()
    }

    type Recorded = FleetOutcome<MemorySink, Vec<crate::WindowDecision>>;

    /// Runs `items` through a fleet scoring against `model`, pushing
    /// events and closing streams in their order.
    fn run_items(model: &ReferenceModel, items: &[Item], workers: usize, batch: usize) -> Recorded {
        let mut fleet = FleetReducer::from_model(model.clone(), workers)
            .unwrap()
            .with_batch_size(batch)
            .with_sinks(|_| MemorySink::new())
            .with_observers(|_| Vec::new());
        for item in items {
            match *item {
                Item::Event(stream, event) => fleet.push(stream, event),
                Item::Close(stream) => fleet.close_stream(stream),
            }
            .unwrap();
        }
        fleet.finish().unwrap()
    }

    /// `count` repetitions of `pattern`, whose entries are a stream id and
    /// whether to close that stream rather than push to it; each stream's
    /// events are numbered on its own clock.
    fn scripted(pattern: &[(u32, bool)], count: usize) -> Vec<Item> {
        let mut clocks = HashMap::new();
        let mut items = Vec::new();
        for _ in 0..count {
            for &(id, close) in pattern {
                let stream = StreamId::new(id);
                if close {
                    items.push(Item::Close(stream));
                } else {
                    let clock = clocks.entry(id).or_insert(0u64);
                    items.push(Item::Event(stream, steady_event(*clock)));
                    *clock += 1;
                }
            }
        }
        items
    }

    const A: u32 = 3;
    const B: u32 = 8;

    #[test]
    fn a_run_ends_at_a_close_of_its_stream() {
        let model = steady_model();
        let items = scripted(&[(A, false), (A, false), (A, true), (A, false)], 1);
        let outcome = run_items(&model, &items, 1, DEFAULT_BATCH_SIZE);
        let sessions: Vec<(StreamId, u64, bool)> = outcome
            .streams
            .iter()
            .map(|s| (s.stream, s.events, s.is_ok()))
            .collect();
        let a = StreamId::new(A);
        assert_eq!(sessions, vec![(a, 2, true), (a, 1, true)]);
    }

    #[test]
    fn a_run_cut_by_a_failing_sink_discards_its_rest() {
        // Stream A: one run of 100 000 events, a B event, then a run of 10
        // more A events, all in one batch. A's sink fails on its third
        // record, deep inside the first run.
        let faulty = || FaultySink {
            events: 0,
            records_left: 2,
            armed: true,
            panics: false,
        };
        let (a, b) = (StreamId::new(A), StreamId::new(B));
        let run: Vec<TraceEvent> = tagged_stream(1, Duration::from_secs(20))
            .map(|(_, event)| event)
            .collect();
        let last = run[run.len() - 1];
        let tail = 10;
        let mut pushes: Vec<(StreamId, TraceEvent)> = run.iter().map(|&e| (a, e)).collect();
        pushes.push((b, last));
        pushes.extend(std::iter::repeat((a, last)).take(tail));

        let mut fleet = FleetReducer::new(recording_config(), 1)
            .unwrap()
            .with_batch_size(1 << 17)
            .with_sinks(move |stream| FaultySink {
                armed: stream == a,
                ..faulty()
            })
            .with_observers(|_| Vec::new());
        for &(stream, event) in &pushes {
            fleet.push(stream, event).unwrap();
        }
        let outcome = fleet.finish().unwrap();
        let a_outcome = outcome.stream(a).unwrap();

        // The same run through a standalone session: the push that fails
        // is the last one the stream accepts.
        let mut serial = ReductionSession::new(recording_config())
            .unwrap()
            .with_sink(faulty())
            .with_observer(Vec::new());
        let failed_at = run
            .iter()
            .position(|&event| serial.push(event).is_err())
            .expect("the sink fails inside the run");
        let (sink, decisions) = serial.abort();

        let error = a_outcome.error.as_deref().unwrap();
        assert!(error.contains("sink storage failed"), "{error}");
        let accepted = failed_at as u64 + 1;
        assert_eq!(a_outcome.events, accepted, "the failing event is counted");
        let discarded = run.len() as u64 - accepted + tail as u64;
        assert_eq!(a_outcome.discarded, discarded, "conserved");
        // Nothing after the failure reached a session.
        assert_eq!(a_outcome.observer.as_ref(), Some(&decisions));
        let recorded = a_outcome.sink.as_ref().unwrap().recorded_events();
        assert_eq!(recorded, sink.recorded_events());
        assert_eq!(outcome.events_routed, pushes.len() as u64);
    }

    /// Reads the fleet's queue depth from the worker thread at every
    /// window decision and keeps the lowest value it saw.
    struct DepthProbe {
        registry: Arc<Registry>,
        lowest: Arc<std::sync::atomic::AtomicI64>,
    }

    impl DecisionObserver for DepthProbe {
        fn on_decision(&mut self, _decision: &crate::WindowDecision) {
            let depth = self.registry.snapshot().gauge("core_fleet_queue_depth");
            let depth = depth.expect("the gauge is registered");
            self.lowest
                .fetch_min(depth, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn the_queue_depth_never_reads_negative_on_the_worker() {
        let registry = Registry::new();
        let lowest = Arc::new(std::sync::atomic::AtomicI64::new(i64::MAX));
        let probe_registry = Arc::clone(&registry);
        let probe_lowest = Arc::clone(&lowest);
        let mut fleet = FleetReducer::new(test_config(), 2)
            .unwrap()
            .with_batch_size(1)
            .with_metrics(Arc::clone(&registry))
            .with_observers(move |_| DepthProbe {
                registry: Arc::clone(&probe_registry),
                lowest: Arc::clone(&probe_lowest),
            });
        for i in 0..20_000u64 {
            for device in 0..4u32 {
                fleet.push(StreamId::new(device), steady_event(i)).unwrap();
            }
        }
        let outcome = fleet.finish().unwrap();
        assert_eq!(outcome.failed_streams, 0);
        let lowest = lowest.load(std::sync::atomic::Ordering::SeqCst);
        assert!(lowest < i64::MAX, "the probe ran");
        assert!(lowest >= 0, "queue depth read {lowest}");
        assert_eq!(registry.snapshot().gauge("core_fleet_queue_depth"), Some(0));
    }

    #[test]
    fn a_batch_item_is_no_larger_than_a_routed_event() {
        assert_eq!(
            std::mem::size_of::<Item>(),
            std::mem::size_of::<(StreamId, TraceEvent)>()
        );
    }

    #[test]
    fn finish_without_pushes_is_empty() {
        let fleet = FleetReducer::new(test_config(), 4).unwrap();
        let outcome = fleet.finish().unwrap();
        assert!(outcome.streams.is_empty());
        assert_eq!(outcome.events_routed, 0);
        assert_eq!(outcome.failed_streams, 0);
    }

    #[test]
    fn rejects_zero_workers() {
        assert!(FleetReducer::new(test_config(), 0).is_err());
    }

    #[test]
    #[should_panic(expected = "before any event is pushed")]
    fn with_sinks_after_push_panics() {
        let mut fleet = FleetReducer::new(test_config(), 2).unwrap();
        fleet.push(StreamId::new(0), steady_event(0)).unwrap();
        let _ = fleet.with_sinks(|_| MemorySink::new());
    }
}
