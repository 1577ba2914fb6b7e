//! The push-based streaming reduction API.
//!
//! Endurance tests run for hours or days, so the reducer must operate
//! online with bounded memory. [`ReductionSession`] is the core public API
//! for that: callers create a session from a [`MonitorConfig`] (or a
//! pre-learned [`ReferenceModel`]), feed events incrementally with
//! [`ReductionSession::push`] / [`ReductionSession::push_batch`], and call
//! [`ReductionSession::finish`] to flush the trailing partial window and
//! obtain the final [`ReductionReport`].
//!
//! Internally the session is a two-phase state machine
//! (`Learning → Monitoring`) driving an incremental
//! [`trace_model::WindowAssembler`]. Nothing stream-length-proportional is
//! buffered by the session itself:
//!
//! * the open window is `O(window size)`;
//! * during learning, the reference windows are `O(reference duration)`
//!   and are dropped the moment the model is fitted;
//! * decisions are streamed to a [`DecisionObserver`] instead of being
//!   accumulated;
//! * recorded events go straight to the configured
//!   [`trace_model::EventSink`].

use std::sync::Arc;

use endurance_obs::{Counter, Gauge, Histogram, Registry};
use trace_model::{EventSink, EventSource, MemorySink, TraceEvent, Window, WindowAssembler};

use crate::{
    CoreError, MonitorConfig, OnlineMonitor, PmfScratch, ReductionReport, ReferenceModel,
    TraceRecorder, WindowDecision,
};

/// Push-path timing is sampled one-in-N so the steady-state cost of an
/// instrumented session stays a branch per event (see
/// `docs/OBSERVABILITY.md`, "Overhead contract").
const PUSH_SAMPLE_MASK: u64 = 1023;

/// The session's metric handles, resolved once at construction so the
/// hot path never touches the registry's intern table.
#[derive(Debug)]
struct SessionMetrics {
    /// `core_session_events_total` — flushed per closed window, not per
    /// push, to keep atomics off the event path.
    events_total: Counter,
    /// `core_session_transitions_total` — learning→monitoring fits.
    transitions_total: Counter,
    /// `core_session_model_distinct_points` — distinct reference points
    /// of the model being monitored against, set on entering monitoring.
    model_distinct_points: Gauge,
    /// `core_session_push_ns` — sampled 1-in-1024 push latencies.
    push_ns: Histogram,
    /// `core_session_window_close_ns` — full window-routing latency.
    window_close_ns: Histogram,
    /// `core_session_decision_ns` — gate + LOF scoring latency.
    decision_ns: Histogram,
}

impl SessionMetrics {
    fn from_registry(registry: &Registry) -> Self {
        SessionMetrics {
            events_total: registry.counter("core_session_events_total"),
            transitions_total: registry.counter("core_session_transitions_total"),
            model_distinct_points: registry.gauge("core_session_model_distinct_points"),
            push_ns: registry.histogram("core_session_push_ns"),
            window_close_ns: registry.histogram("core_session_window_close_ns"),
            decision_ns: registry.histogram("core_session_decision_ns"),
        }
    }

    fn disabled() -> Self {
        Self::from_registry(&Registry::disabled())
    }

    /// Publishes the model a session has just started monitoring against.
    fn entered_monitoring(&self, monitor: &OnlineMonitor) {
        let distinct = monitor.model().lof().distinct_points();
        self.model_distinct_points.set(distinct as i64);
    }
}

/// Observer of per-window monitoring decisions, notified in stream order.
///
/// The session streams decisions out instead of buffering them, so memory
/// stays bounded on multi-day runs. Implementations range from ignoring
/// everything ([`NullObserver`]) through counting, down-sampling or
/// forwarding to a metrics pipeline. `Vec<WindowDecision>` implements the
/// trait by collecting (for short runs and tests), and [`FnObserver`]
/// adapts any closure.
pub trait DecisionObserver {
    /// Called once per monitored window, in stream order.
    fn on_decision(&mut self, decision: &WindowDecision);
}

/// Ignores every decision; the bounded-memory default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl DecisionObserver for NullObserver {
    fn on_decision(&mut self, _decision: &WindowDecision) {}
}

/// Collects decisions in stream order (memory grows with the stream, use
/// deliberately).
impl DecisionObserver for Vec<WindowDecision> {
    fn on_decision(&mut self, decision: &WindowDecision) {
        self.push(*decision);
    }
}

impl<O: DecisionObserver> DecisionObserver for &mut O {
    fn on_decision(&mut self, decision: &WindowDecision) {
        (**self).on_decision(decision);
    }
}

/// Adapts a closure into a [`DecisionObserver`].
///
/// ```rust
/// use endurance_core::FnObserver;
///
/// let mut anomalies = 0u64;
/// let observer = FnObserver(|decision: &endurance_core::WindowDecision| {
///     if decision.recorded() {
///         anomalies += 1;
///     }
/// });
/// # let _ = observer;
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FnObserver<F>(pub F);

impl<F: FnMut(&WindowDecision)> DecisionObserver for FnObserver<F> {
    fn on_decision(&mut self, decision: &WindowDecision) {
        (self.0)(decision);
    }
}

/// Which phase a [`ReductionSession`] is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// Collecting reference windows; no decisions are produced yet.
    Learning,
    /// The reference model is fitted; every closed window is monitored.
    Monitoring,
}

/// Everything a finished session hands back: the report plus the caller's
/// sink and observer (with whatever they accumulated).
#[derive(Debug)]
pub struct SessionOutcome<S, O> {
    /// Headline volume/monitoring summary.
    pub report: ReductionReport,
    /// The event sink, containing the recorded (reduced) trace.
    pub sink: S,
    /// The decision observer, with whatever state it accumulated.
    pub observer: O,
}

/// Internal state machine: learning buffers reference windows, monitoring
/// owns the fitted model.
#[derive(Debug)]
enum PhaseState {
    Learning {
        reference: Vec<Window>,
    },
    Monitoring {
        // Boxed: the monitor (model + gate) dwarfs the learning variant.
        monitor: Box<OnlineMonitor>,
        reference_count: usize,
    },
}

/// The push-based online trace reducer.
///
/// Feed events in timestamp order with [`ReductionSession::push`] (or in
/// chunks with [`ReductionSession::push_batch`] /
/// [`ReductionSession::push_source`]); windows that depart from the learned
/// reference behaviour are recorded to the sink, and every decision is
/// streamed to the observer. [`ReductionSession::finish`] flushes the
/// trailing partial window and returns the [`SessionOutcome`].
///
/// ```rust
/// use endurance_core::{MonitorConfig, ReductionSession};
/// use trace_model::{EventTypeId, TraceEvent, Timestamp};
///
/// # fn main() -> Result<(), endurance_core::CoreError> {
/// let config = MonitorConfig::builder()
///     .dimensions(1)
///     .reference_duration(std::time::Duration::from_secs(2))
///     .build()?;
/// let mut session = ReductionSession::new(config)?;
/// for i in 0..50_000u64 {
///     session.push(TraceEvent::new(
///         Timestamp::from_micros(i * 200),
///         EventTypeId::new(0),
///         0,
///     ))?;
/// }
/// let outcome = session.finish()?;
/// assert!(outcome.report.reduction_factor() > 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ReductionSession<S: EventSink = MemorySink, O: DecisionObserver = NullObserver> {
    config: MonitorConfig,
    assembler: WindowAssembler,
    state: PhaseState,
    recorder: TraceRecorder<S>,
    observer: O,
    events_pushed: u64,
    /// High-water mark of the assembler's open-window buffer, proving the
    /// bounded-memory claim in tests.
    peak_buffered_events: usize,
    /// Pooled pmf buffers: one window pmf is rebuilt in place per
    /// monitored window instead of allocating three vectors each time.
    scratch: PmfScratch,
    /// Spent window buffer awaiting return to the assembler
    /// ([`WindowAssembler::recycle`]): monitored windows deposit their
    /// event vector here after the decision is streamed, and the next
    /// `push`/`flush` hands it back, so the steady monitoring state
    /// allocates nothing per event.
    recycled: Vec<TraceEvent>,
    /// Metric handles (detached no-ops until
    /// [`ReductionSession::with_metrics`] installs an enabled registry).
    metrics: SessionMetrics,
}

impl ReductionSession<MemorySink, NullObserver> {
    /// Creates a session that learns its reference model from the first
    /// [`MonitorConfig::reference_duration`] of the stream.
    ///
    /// The default sink keeps recorded events in memory and the default
    /// observer discards decisions; exchange them with
    /// [`ReductionSession::with_sink`] and
    /// [`ReductionSession::with_observer`] before pushing events.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the configuration is
    /// invalid.
    pub fn new(config: MonitorConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(ReductionSession {
            assembler: config.window.assembler()?,
            state: PhaseState::Learning {
                reference: Vec::new(),
            },
            recorder: TraceRecorder::new(MemorySink::new()),
            observer: NullObserver,
            events_pushed: 0,
            peak_buffered_events: 0,
            scratch: PmfScratch::new(),
            recycled: Vec::new(),
            metrics: SessionMetrics::disabled(),
            config,
        })
    }

    /// Creates a session that skips the learning phase, monitoring every
    /// window against an already fitted model (the paper's "curated
    /// database of reference traces" workflow). The model's embedded
    /// configuration drives windowing and thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the model's configuration is
    /// invalid.
    pub fn from_model(model: ReferenceModel) -> Result<Self, CoreError> {
        let config = model.config().clone();
        Self::from_model_with_config(config, model)
    }

    /// Like [`ReductionSession::from_model`], but with an explicit
    /// configuration overriding the model's embedded one — the curated
    /// model supplies the reference behaviour while the caller picks the
    /// window strategy and `α`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `config` is invalid.
    pub fn from_model_with_config(
        config: MonitorConfig,
        model: ReferenceModel,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let reference_count = model.reference_windows();
        let mut monitor = OnlineMonitor::new(model);
        monitor.set_alpha(config.alpha);
        Ok(ReductionSession {
            assembler: config.window.assembler()?,
            state: PhaseState::Monitoring {
                monitor: Box::new(monitor),
                reference_count,
            },
            recorder: TraceRecorder::new(MemorySink::new()),
            observer: NullObserver,
            events_pushed: 0,
            peak_buffered_events: 0,
            scratch: PmfScratch::new(),
            recycled: Vec::new(),
            metrics: SessionMetrics::disabled(),
            config,
        })
    }
}

impl<S: EventSink, O: DecisionObserver> ReductionSession<S, O> {
    /// Replaces the event sink, keeping every other setting.
    ///
    /// # Panics
    ///
    /// Panics if events have already been pushed: the sink may hold
    /// recorded data that would be silently dropped.
    pub fn with_sink<S2: EventSink>(self, sink: S2) -> ReductionSession<S2, O> {
        assert_eq!(
            self.events_pushed, 0,
            "the sink must be installed before any event is pushed"
        );
        ReductionSession {
            config: self.config,
            assembler: self.assembler,
            state: self.state,
            recorder: TraceRecorder::new(sink),
            observer: self.observer,
            events_pushed: 0,
            peak_buffered_events: 0,
            scratch: self.scratch,
            recycled: self.recycled,
            metrics: self.metrics,
        }
    }

    /// Replaces the decision observer, keeping every other setting.
    ///
    /// # Panics
    ///
    /// Panics if events have already been pushed: the observer would have
    /// missed earlier decisions.
    pub fn with_observer<O2: DecisionObserver>(self, observer: O2) -> ReductionSession<S, O2> {
        assert_eq!(
            self.events_pushed, 0,
            "the observer must be installed before any event is pushed"
        );
        ReductionSession {
            config: self.config,
            assembler: self.assembler,
            state: self.state,
            recorder: self.recorder,
            observer,
            events_pushed: 0,
            peak_buffered_events: 0,
            scratch: self.scratch,
            recycled: self.recycled,
            metrics: self.metrics,
        }
    }

    /// Installs a metrics registry; the session reports
    /// `core_session_events_total`, `core_session_transitions_total`,
    /// `core_session_model_distinct_points`,
    /// `core_session_window_close_ns`, `core_session_decision_ns` and
    /// sampled `core_session_push_ns` into it. Event counts are flushed
    /// per closed window and push timing is sampled 1-in-1024, so the
    /// per-event cost stays a branch (the overhead contract in
    /// `docs/OBSERVABILITY.md`, enforced by the bench gate).
    ///
    /// # Panics
    ///
    /// Panics if events have already been pushed: the metrics would have
    /// missed them.
    pub fn with_metrics(mut self, registry: Arc<Registry>) -> Self {
        assert_eq!(
            self.events_pushed, 0,
            "metrics must be installed before any event is pushed"
        );
        self.metrics = SessionMetrics::from_registry(&registry);
        if let PhaseState::Monitoring { monitor, .. } = &self.state {
            self.metrics.entered_monitoring(monitor);
        }
        self
    }

    /// The session's configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// The current phase of the session.
    pub fn phase(&self) -> SessionPhase {
        match self.state {
            PhaseState::Learning { .. } => SessionPhase::Learning,
            PhaseState::Monitoring { .. } => SessionPhase::Monitoring,
        }
    }

    /// The reference model, once the learning phase has completed.
    pub fn model(&self) -> Option<&ReferenceModel> {
        match &self.state {
            PhaseState::Learning { .. } => None,
            PhaseState::Monitoring { monitor, .. } => Some(monitor.model()),
        }
    }

    /// Read access to the event sink.
    pub fn sink(&self) -> &S {
        self.recorder.sink()
    }

    /// Read access to the decision observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Total events pushed so far.
    pub fn events_pushed(&self) -> u64 {
        self.events_pushed
    }

    /// Events buffered in the currently open window.
    pub fn buffered_events(&self) -> usize {
        self.assembler.buffered_events()
    }

    /// High-water mark of the open-window buffer over the whole session —
    /// the session's only stream-facing buffer, so this stays `O(window)`
    /// no matter how long the run is.
    pub fn peak_buffered_events(&self) -> usize {
        self.peak_buffered_events
    }

    /// Windows monitored so far (zero while learning).
    pub fn windows_monitored(&self) -> u64 {
        match &self.state {
            PhaseState::Learning { .. } => 0,
            PhaseState::Monitoring { monitor, .. } => monitor.windows_seen(),
        }
    }

    /// Pushes one event.
    ///
    /// Every window the event closes is routed through the phase state
    /// machine: buffered as reference material while learning, or
    /// monitored (and possibly recorded) once the model is fitted. The
    /// learning→monitoring transition happens inline the moment a closed
    /// window ends past the reference horizon.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidReference`] if the reference segment is
    /// too short for the configured `K` when the transition fires, and
    /// propagates monitoring, encoding and sink errors.
    pub fn push(&mut self, event: TraceEvent) -> Result<(), CoreError> {
        // Sampled push timing: only an enabled registry reads the clock,
        // and then only one push in 1024.
        let timer = if self.metrics.push_ns.timed() && self.events_pushed & PUSH_SAMPLE_MASK == 0 {
            Some(std::time::Instant::now())
        } else {
            None
        };
        self.events_pushed += 1;
        let ReductionSession {
            config,
            assembler,
            state,
            recorder,
            observer,
            scratch,
            recycled,
            metrics,
            ..
        } = self;
        assembler.push(event, &mut |window| {
            Self::handle_window(
                config, state, recorder, observer, scratch, recycled, metrics, window,
            )
        })?;
        // Hand the spent buffer back outside the emit closure (the
        // assembler is mutably borrowed while it runs).
        if self.recycled.capacity() > 0 {
            self.assembler.recycle(std::mem::take(&mut self.recycled));
        }
        self.peak_buffered_events = self
            .peak_buffered_events
            .max(self.assembler.buffered_events());
        if let Some(start) = timer {
            self.metrics.push_ns.record_duration(start.elapsed());
        }
        Ok(())
    }

    /// Pushes a batch of events (in timestamp order), as delivered by a
    /// tracing-hardware buffer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReductionSession::push`].
    pub fn push_batch(&mut self, events: &[TraceEvent]) -> Result<(), CoreError> {
        for event in events {
            self.push(*event)?;
        }
        Ok(())
    }

    /// Drains an [`EventSource`] to exhaustion, pushing every event.
    /// Returns how many events were read.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReductionSession::push`].
    pub fn push_source<Src: EventSource>(&mut self, source: &mut Src) -> Result<u64, CoreError> {
        let mut pushed = 0u64;
        while let Some(event) = source.next_event() {
            self.push(event)?;
            pushed += 1;
        }
        Ok(pushed)
    }

    /// Flushes the end-of-stream work while the session is still usable:
    /// the trailing partial window is routed through the state machine,
    /// and a stream that never left the reference horizon learns its
    /// model (surfacing the same [`CoreError::InvalidReference`] as the
    /// in-stream transition).
    ///
    /// [`ReductionSession::finish`] calls this internally; call it
    /// explicitly first when the sink must survive a failure — on error
    /// the session is still owned, so [`ReductionSession::abort`] can
    /// recover the sink and observer. Idempotent: a second call is a
    /// no-op. Do not push further events afterwards.
    ///
    /// # Errors
    ///
    /// Propagates learning, monitoring, encoding and sink errors.
    pub fn flush(&mut self) -> Result<(), CoreError> {
        if let Some(window) = self.assembler.finish() {
            let ReductionSession {
                config,
                state,
                recorder,
                observer,
                scratch,
                recycled,
                metrics,
                ..
            } = self;
            Self::handle_window(
                config, state, recorder, observer, scratch, recycled, metrics, window,
            )?;
            if self.recycled.capacity() > 0 {
                self.assembler.recycle(std::mem::take(&mut self.recycled));
            }
        }
        // A stream that never left the reference horizon still learns, so
        // a too-short reference surfaces its error here too.
        if let PhaseState::Learning { reference } = &self.state {
            self.state = Self::fit_monitor(reference, &self.config, &self.metrics)?;
        }
        Ok(())
    }

    /// Tears the session down without finishing, returning the sink and
    /// observer with whatever they accumulated. The open window (if any)
    /// is discarded. This is the recovery path after a push or
    /// [`ReductionSession::flush`] error on a long run whose recorded
    /// trace must not be lost.
    pub fn abort(self) -> (S, O) {
        let (sink, _) = self.recorder.into_parts();
        (sink, self.observer)
    }

    /// Flushes the trailing partial window and returns the final report,
    /// the sink (holding the reduced trace) and the observer.
    ///
    /// If the stream ended inside the reference segment, the model is
    /// fitted from whatever reference windows were collected and zero
    /// windows are reported as monitored.
    ///
    /// # Errors
    ///
    /// Propagates learning, monitoring and sink errors. The sink is
    /// dropped on error; when that matters (storage-backed sinks on long
    /// runs), call [`ReductionSession::flush`] first and recover with
    /// [`ReductionSession::abort`] on failure.
    pub fn finish(mut self) -> Result<SessionOutcome<S, O>, CoreError> {
        self.flush()?;
        let PhaseState::Monitoring {
            monitor,
            reference_count,
        } = self.state
        else {
            unreachable!("session is always monitoring after flush()");
        };
        let (sink, recorder_stats) = self.recorder.into_parts();
        let report = ReductionReport {
            monitored_windows: monitor.windows_seen(),
            reference_windows: reference_count as u64,
            lof_evaluations: monitor.lof_evaluations(),
            anomalous_windows: monitor.anomalies(),
            alpha: self.config.alpha,
            recorder: recorder_stats,
        };
        Ok(SessionOutcome {
            report,
            sink,
            observer: self.observer,
        })
    }

    /// Fits the reference model and builds the monitoring state, shared
    /// by the in-stream transition and the end-of-stream flush.
    fn fit_monitor(
        reference: &[Window],
        config: &MonitorConfig,
        metrics: &SessionMetrics,
    ) -> Result<PhaseState, CoreError> {
        let model = ReferenceModel::learn_from_windows(reference, config)?;
        let mut monitor = OnlineMonitor::new(model);
        monitor.set_alpha(config.alpha);
        metrics.transitions_total.inc();
        metrics.entered_monitoring(&monitor);
        Ok(PhaseState::Monitoring {
            monitor: Box::new(monitor),
            reference_count: reference.len(),
        })
    }

    /// Routes one closed window through the phase state machine.
    #[allow(clippy::too_many_arguments)]
    fn handle_window(
        config: &MonitorConfig,
        state: &mut PhaseState,
        recorder: &mut TraceRecorder<S>,
        observer: &mut O,
        scratch: &mut PmfScratch,
        recycled: &mut Vec<TraceEvent>,
        metrics: &SessionMetrics,
        window: Window,
    ) -> Result<(), CoreError> {
        let _close_span = metrics.window_close_ns.span();
        metrics.events_total.add(window.len() as u64);
        if let PhaseState::Learning { reference } = state {
            // The horizon lies `reference_duration` past the start of the
            // stream's first window, whenever the stream starts.
            let first = reference.first().map_or(window.start, |first| first.start);
            if window.end <= first.saturating_add(config.reference_duration) {
                reference.push(window);
                return Ok(());
            }
            // First window past the horizon: fit the model, drop the
            // reference windows, and monitor this window.
            *state = Self::fit_monitor(reference, config, metrics)?;
        }
        let PhaseState::Monitoring { monitor, .. } = state else {
            unreachable!("handled above");
        };
        // Pooled pmf construction: the scratch rebuilds one pmf in place,
        // so the steady monitoring state allocates nothing per window.
        let pmf = scratch.window_pmf(&window, config.dimensions, config.smoothing);
        let decision = {
            let _decision_span = metrics.decision_ns.span();
            monitor.observe_pmf(&window, pmf)?
        };
        recorder.offer(&window, decision.recorded())?;
        observer.on_decision(&decision);
        // The window is spent: stash its buffer for the caller to hand
        // back to the assembler (learning windows are kept as reference
        // material and never reach this point).
        let mut events = window.events;
        events.clear();
        if events.capacity() > recycled.capacity() {
            *recycled = events;
        }
        Ok(())
    }
}

/// Everything a one-shot oracle re-run ([`rerun_with_model`]) produces:
/// every window decision in stream order plus the headline report.
#[derive(Debug, Clone)]
pub struct RerunOutcome {
    /// One decision per closed window, in stream order.
    pub decisions: Vec<WindowDecision>,
    /// Headline volume/monitoring summary of the re-run.
    pub report: ReductionReport,
}

/// Re-runs a batch of events through a fresh monitoring-only session
/// built from an injected, already-curated reference model.
///
/// This is the detector's *oracle* entry point for reproduction
/// tooling: the outcome is a pure function of `(config, model, events)`
/// — no learning phase, no state carried between calls — so repeated
/// invocations over the same inputs yield identical decisions. Pass a
/// config whose drift gate is [`DriftGateConfig::Disabled`] when every
/// window must be LOF-scored statelessly (the gate's running aggregate
/// is the only history-dependent part of the monitor).
///
/// [`DriftGateConfig::Disabled`]: crate::DriftGateConfig::Disabled
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an invalid `config` or a
/// model/config dimension mismatch.
pub fn rerun_with_model(
    config: MonitorConfig,
    model: ReferenceModel,
    events: &[TraceEvent],
) -> Result<RerunOutcome, CoreError> {
    // The monitor consults the *model's* embedded config for gate
    // behaviour; align it with the caller's config so the outcome is a
    // function of the arguments alone.
    let model = model.with_config_override(config.clone());
    let mut session =
        ReductionSession::from_model_with_config(config, model)?.with_observer(Vec::new());
    session.push_batch(events)?;
    let outcome = session.finish()?;
    Ok(RerunOutcome {
        decisions: outcome.observer,
        report: outcome.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmbeddedModel, WindowStrategy};
    use std::time::Duration;
    use trace_model::{CountingSink, EventTypeId, Timestamp};

    fn steady_stream(total: Duration) -> impl Iterator<Item = TraceEvent> {
        let tick_nanos = 200_000u64; // 5 kHz
        let end = Timestamp::from(total).as_nanos();
        (0..end / tick_nanos).map(move |i| {
            TraceEvent::new(
                Timestamp::from_nanos(i * tick_nanos),
                EventTypeId::new((i % 3) as u16),
                0,
            )
        })
    }

    fn config() -> MonitorConfig {
        MonitorConfig::builder()
            .dimensions(3)
            .k(10)
            .reference_duration(Duration::from_secs(2))
            .build()
            .unwrap()
    }

    #[test]
    fn phases_transition_learning_to_monitoring() {
        let mut session = ReductionSession::new(config()).unwrap();
        assert_eq!(session.phase(), SessionPhase::Learning);
        assert!(session.model().is_none());
        for event in steady_stream(Duration::from_secs(5)) {
            session.push(event).unwrap();
        }
        assert_eq!(session.phase(), SessionPhase::Monitoring);
        assert!(session.model().is_some());
        assert!(session.windows_monitored() > 0);
        let outcome = session.finish().unwrap();
        assert!(outcome.report.monitored_windows > 0);
        assert!(outcome.report.reference_windows > 0);
    }

    /// The reference horizon is `reference_duration` past the stream's
    /// first window, not past time zero: a stream that starts late —
    /// a late joiner of a fleet, timestamped from its join — learns the
    /// model it would have learned starting at zero. (Anchored at zero, a
    /// stream starting past the horizon fitted no window at all and failed
    /// with `InvalidReference`.)
    #[test]
    fn a_stream_that_starts_late_learns_what_it_learns_starting_at_zero() {
        let learned = |offset: Duration| {
            let mut session = ReductionSession::new(config()).unwrap();
            for mut event in steady_stream(Duration::from_secs(5)) {
                event.timestamp = event.timestamp.saturating_add(offset);
                session.push(event).unwrap();
            }
            let model = session.model().expect("the session learned");
            EmbeddedModel::embed(model).unwrap().digest()
        };
        let at_zero = learned(Duration::ZERO);
        // Two seconds of reference, then 40 ms slots: the stream starts
        // just past the horizon, and far past it, always on a slot start.
        for offset in [Duration::from_millis(2_040), Duration::from_secs(3_600)] {
            assert_eq!(learned(offset), at_zero, "{offset:?}");
        }
    }

    #[test]
    fn open_window_buffer_is_independent_of_stream_length() {
        let short = {
            let mut session = ReductionSession::new(config()).unwrap();
            for event in steady_stream(Duration::from_secs(4)) {
                session.push(event).unwrap();
            }
            session.peak_buffered_events()
        };
        let long = {
            let mut session = ReductionSession::new(config()).unwrap();
            for event in steady_stream(Duration::from_secs(40)) {
                session.push(event).unwrap();
            }
            session.peak_buffered_events()
        };
        assert_eq!(
            short, long,
            "peak open-window buffer must not grow with the stream"
        );
    }

    #[test]
    fn custom_sink_and_observer_receive_the_stream() {
        let mut recorded_decisions = 0u64;
        let mut session = ReductionSession::new(config())
            .unwrap()
            .with_sink(CountingSink::new())
            .with_observer(FnObserver(|decision: &WindowDecision| {
                if decision.recorded() {
                    recorded_decisions += 1;
                }
            }));
        for event in steady_stream(Duration::from_secs(6)) {
            session.push(event).unwrap();
        }
        let SessionOutcome {
            report,
            sink,
            observer,
        } = session.finish().unwrap();
        let _ = observer; // release the closure's borrow on the counter
        assert_eq!(report.anomalous_windows, recorded_decisions);
        assert_eq!(
            sink.recorded_events() as u64,
            report.recorder.events_recorded
        );
    }

    #[test]
    fn too_short_stream_surfaces_reference_error_on_finish() {
        let mut session = ReductionSession::new(config()).unwrap();
        for event in steady_stream(Duration::from_millis(200)) {
            session.push(event).unwrap();
        }
        assert!(matches!(
            session.finish(),
            Err(CoreError::InvalidReference(_))
        ));
    }

    #[test]
    fn from_model_monitors_from_the_first_window() {
        // Learn on one clean stream...
        let mut learn = ReductionSession::new(config()).unwrap();
        for event in steady_stream(Duration::from_secs(4)) {
            learn.push(event).unwrap();
        }
        let json = learn.model().unwrap().to_json().unwrap();
        let model = ReferenceModel::from_json(&json).unwrap();

        // ...monitor another without a learning phase.
        let mut session = ReductionSession::from_model(model).unwrap();
        assert_eq!(session.phase(), SessionPhase::Monitoring);
        for event in steady_stream(Duration::from_secs(3)) {
            session.push(event).unwrap();
        }
        let outcome = session.finish().unwrap();
        // Every window of the stream was monitored, including the head.
        assert_eq!(outcome.report.monitored_windows, 3_000 / 40);
    }

    #[test]
    fn with_sink_after_push_panics() {
        let result = std::panic::catch_unwind(|| {
            let mut session = ReductionSession::new(config()).unwrap();
            session
                .push(TraceEvent::new(Timestamp::ZERO, EventTypeId::new(0), 0))
                .unwrap();
            session.with_sink(CountingSink::new())
        });
        assert!(result.is_err());
    }

    /// A sink that starts failing after a set number of record calls,
    /// standing in for a storage backend hitting a transient fault.
    #[derive(Debug, Default)]
    struct FlakySink {
        events: Vec<TraceEvent>,
        records_left: usize,
    }

    impl trace_model::EventSink for FlakySink {
        fn record(&mut self, events: &[TraceEvent]) -> Result<(), trace_model::TraceError> {
            if self.records_left == 0 {
                return Err(trace_model::TraceError::InvalidWindowConfig(
                    "sink storage failed".into(),
                ));
            }
            self.records_left -= 1;
            self.events.extend_from_slice(events);
            Ok(())
        }

        fn recorded_events(&self) -> usize {
            self.events.len()
        }
    }

    #[test]
    fn abort_recovers_the_sink_after_a_push_error() {
        // A config whose alpha records essentially every window, driving
        // the flaky sink to its failure quickly.
        let config = MonitorConfig::builder()
            .dimensions(3)
            .k(10)
            .alpha(1.0)
            .drift_gate(crate::DriftGateConfig::Disabled)
            .reference_duration(Duration::from_secs(2))
            .build()
            .unwrap();
        let mut session = ReductionSession::new(config).unwrap().with_sink(FlakySink {
            events: Vec::new(),
            records_left: 3,
        });
        let mut push_error = None;
        for event in steady_stream(Duration::from_secs(10)) {
            if let Err(error) = session.push(event) {
                push_error = Some(error);
                break;
            }
        }
        let error = push_error.expect("the flaky sink must eventually fail a push");
        assert!(matches!(error, CoreError::Trace(_)));

        // The session is still owned: the recorded trace survives.
        let (sink, _observer) = session.abort();
        assert!(sink.recorded_events() > 0, "earlier windows were recorded");
    }

    #[test]
    fn flush_is_idempotent_and_finish_after_flush_succeeds() {
        let mut session = ReductionSession::new(config()).unwrap();
        for event in steady_stream(Duration::from_secs(5)) {
            session.push(event).unwrap();
        }
        session.flush().unwrap();
        let monitored_after_first_flush = session.windows_monitored();
        session.flush().unwrap();
        assert_eq!(session.windows_monitored(), monitored_after_first_flush);
        let outcome = session.finish().unwrap();
        assert_eq!(
            outcome.report.monitored_windows,
            monitored_after_first_flush
        );
    }

    #[test]
    fn metrics_registry_observes_the_whole_session() {
        let registry = endurance_obs::Registry::new();
        let mut session = ReductionSession::new(config())
            .unwrap()
            .with_metrics(Arc::clone(&registry));
        for event in steady_stream(Duration::from_secs(5)) {
            session.push(event).unwrap();
        }
        let pushed = session.events_pushed();
        let outcome = session.finish().unwrap();

        let snapshot = registry.snapshot();
        // Every pushed event lands in some closed window (finish flushes
        // the trailing partial one), so the window-flushed counter is
        // exact.
        assert_eq!(snapshot.counter("core_session_events_total"), Some(pushed));
        assert_eq!(snapshot.counter("core_session_transitions_total"), Some(1));
        let closes = snapshot.histogram("core_session_window_close_ns").unwrap();
        assert_eq!(
            closes.count,
            outcome.report.reference_windows + outcome.report.monitored_windows
        );
        let decisions = snapshot.histogram("core_session_decision_ns").unwrap();
        assert_eq!(decisions.count, outcome.report.monitored_windows);
        // 1-in-1024 sampling saw at least one push on a 25k-event run.
        let pushes = snapshot.histogram("core_session_push_ns").unwrap();
        assert!(pushes.count >= pushed / 1024);
    }

    #[test]
    fn model_distinct_points_gauge_is_set_on_entering_monitoring() {
        const GAUGE: &str = "core_session_model_distinct_points";
        // Learned: unset while learning, published by the fit. A window
        // of the steady stream holds 200 events, so the 3-cycle of types
        // repeats its phase every third window: three distinct pmfs.
        let registry = endurance_obs::Registry::new();
        let mut session = ReductionSession::new(config())
            .unwrap()
            .with_metrics(Arc::clone(&registry));
        assert_eq!(registry.snapshot().gauge(GAUGE), Some(0));
        for event in steady_stream(Duration::from_secs(5)) {
            session.push(event).unwrap();
        }
        let model = session.model().unwrap().clone();
        assert_eq!(model.reference_windows(), 50);
        assert_eq!(model.lof().distinct_points(), 3);
        assert_eq!(registry.snapshot().gauge(GAUGE), Some(3));

        // Curated: the session is monitoring from construction, so
        // installing the registry publishes it.
        let registry = endurance_obs::Registry::new();
        let _session = ReductionSession::from_model(model)
            .unwrap()
            .with_metrics(Arc::clone(&registry));
        assert_eq!(registry.snapshot().gauge(GAUGE), Some(3));
    }

    /// A regular four-type mix at 100 ticks/s, plus an optional disturbed
    /// segment where the mix flips and error events appear.
    fn synthetic_stream(
        total: Duration,
        disturbed: Option<(Duration, Duration)>,
        seed: u64,
    ) -> Vec<TraceEvent> {
        use rand::prelude::*;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut events = Vec::new();
        let tick = Duration::from_millis(10);
        let mut t = Timestamp::ZERO;
        let end = Timestamp::from(total);
        while t < end {
            let in_disturbance = disturbed
                .map(|(s, e)| t >= Timestamp::from(s) && t < Timestamp::from(e))
                .unwrap_or(false);
            let counts: [u64; 4] = if in_disturbance {
                [1, 1, 2, 8 + rng.gen_range(0..3)]
            } else {
                [6 + rng.gen_range(0..2), 4 + rng.gen_range(0..2), 2, 1]
            };
            let mut offset = 0u64;
            for (ty, count) in counts.iter().enumerate() {
                for _ in 0..*count {
                    let severity = if in_disturbance && ty == 3 && rng.gen_bool(0.3) {
                        trace_model::Severity::Error
                    } else {
                        trace_model::Severity::Info
                    };
                    events.push(
                        TraceEvent::new(
                            Timestamp::from_nanos(t.as_nanos() + offset),
                            EventTypeId::new(ty as u16),
                            0,
                        )
                        .with_severity(severity),
                    );
                    offset += 50_000;
                }
            }
            t = t.saturating_add(tick);
        }
        events
    }

    fn mix_config() -> crate::MonitorConfigBuilder {
        MonitorConfig::builder()
            .dimensions(4)
            .k(10)
            .alpha(1.2)
            .reference_duration(Duration::from_secs(5))
    }

    /// One whole-stream pass collecting every decision.
    fn reduce(
        config: MonitorConfig,
        events: &[TraceEvent],
    ) -> SessionOutcome<MemorySink, Vec<WindowDecision>> {
        let mut session = ReductionSession::new(config)
            .unwrap()
            .with_observer(Vec::new());
        session.push_batch(events).unwrap();
        session.finish().unwrap()
    }

    #[test]
    fn clean_stream_is_reduced_massively() {
        let events = synthetic_stream(Duration::from_secs(30), None, 1);
        let outcome = reduce(mix_config().build().unwrap(), &events);
        assert!(outcome.report.reference_windows > 0);
        assert!(outcome.report.monitored_windows > 500);
        // Essentially nothing should be recorded on a clean run; a small
        // false-positive rate is tolerated because the reference set in this
        // toy test is only a few seconds long.
        assert!(outcome.report.recorded_window_fraction() < 0.05);
        assert!(outcome.report.reduction_factor() > 15.0);
        assert_eq!(
            outcome.sink.events().len() as u64,
            outcome.report.recorder.events_recorded
        );
    }

    #[test]
    fn disturbed_segment_is_recorded() {
        let events = synthetic_stream(
            Duration::from_secs(30),
            Some((Duration::from_secs(15), Duration::from_secs(20))),
            2,
        );
        let outcome = reduce(mix_config().build().unwrap(), &events);
        assert!(outcome.report.anomalous_windows > 0);
        // Recorded windows should overlap the disturbance interval.
        let recorded: Vec<_> = outcome.observer.iter().filter(|d| d.recorded()).collect();
        let in_disturbance = recorded
            .iter()
            .filter(|d| d.start >= Timestamp::from_secs(15) && d.start < Timestamp::from_secs(21))
            .count();
        assert!(in_disturbance > 0);
        assert!(
            in_disturbance as f64 >= 0.5 * recorded.len() as f64,
            "most recorded windows should fall in the disturbed segment \
             ({in_disturbance}/{})",
            recorded.len()
        );
        // But the total volume is still far below recording everything.
        assert!(outcome.report.reduction_factor() > 3.0);
    }

    #[test]
    fn count_windows_are_supported() {
        // Seed picked for the vendored ChaCha8 stream: the toy 5 s reference
        // set is small, so the false-positive rate is seed-sensitive.
        let events = synthetic_stream(Duration::from_secs(20), None, 10);
        let config = mix_config()
            .window(WindowStrategy::Count(140))
            .build()
            .unwrap();
        let outcome = reduce(config, &events);
        assert!(outcome.report.monitored_windows > 0);
        assert!(outcome.report.recorded_window_fraction() < 0.05);
    }

    #[test]
    fn gate_reduces_lof_evaluations() {
        let events = synthetic_stream(Duration::from_secs(30), None, 7);
        let gated = reduce(mix_config().build().unwrap(), &events).report;
        let ungated_config = mix_config()
            .drift_gate(crate::DriftGateConfig::Disabled)
            .build()
            .unwrap();
        let ungated = reduce(ungated_config, &events).report;
        assert!(gated.lof_evaluations < ungated.lof_evaluations);
        assert_eq!(ungated.lof_evaluations, ungated.monitored_windows);
    }

    #[test]
    fn push_batch_and_push_source_agree_with_push() {
        let events: Vec<TraceEvent> = steady_stream(Duration::from_secs(5)).collect();

        let mut one_by_one = ReductionSession::new(config())
            .unwrap()
            .with_observer(Vec::new());
        for event in &events {
            one_by_one.push(*event).unwrap();
        }
        let a = one_by_one.finish().unwrap();

        let mut batched = ReductionSession::new(config())
            .unwrap()
            .with_observer(Vec::new());
        batched.push_batch(&events).unwrap();
        let b = batched.finish().unwrap();

        let mut sourced = ReductionSession::new(config())
            .unwrap()
            .with_observer(Vec::new());
        let mut source = events.clone().into_iter();
        let read = sourced.push_source(&mut source).unwrap();
        let c = sourced.finish().unwrap();

        assert_eq!(read, events.len() as u64);
        assert_eq!(a.report, b.report);
        assert_eq!(a.report, c.report);
        assert_eq!(a.observer, b.observer);
        assert_eq!(a.observer, c.observer);
        assert_eq!(a.sink.events(), b.sink.events());
        assert_eq!(a.sink.events(), c.sink.events());
    }
}
