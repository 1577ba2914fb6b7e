//! Churn experiment mode: a faulted, churning device fleet scored against
//! injected ground truth.
//!
//! Where [`MultiStreamExperiment`](crate::MultiStreamExperiment) replays
//! `N` well-behaved copies of the paper's workload, the churn experiment
//! drives a [`FleetSim`]: devices join and leave mid-run, clocks skew and
//! drift, streams stall, and events arrive reordered, duplicated or
//! dropped, exactly as `docs/SCENARIOS.md` specifies. One pass over the
//! simulated fleet trace feeds two [`FleetReducer`]s at once:
//!
//! * the **collector plane** — every stream pushed under its
//!   [`shard_of`] id, modelling the shared trace collector: a few shard
//!   sessions absorb every stream, exercising batching, backpressure and
//!   mid-run stream appearance/disappearance at fleet volume;
//! * the **health plane** — one session per stream against a shared
//!   curated reference model, producing the per-stream window decisions
//!   that are scored against each stream's [`StreamTruth`].
//!
//! The same pass folds every delivered event into a [`TraceHasher`], so
//! two runs of the same scenario seed can be compared byte-for-byte (the
//! CI determinism gate).

use endurance_core::{
    shard_of, FleetOutcome, FleetReducer, MonitorConfig, ReductionReport, ReductionSession,
    ReferenceModel, WindowDecision,
};
use endurance_obs::Registry;
use mm_sim::{
    DeliveryStats, FleetEvent, FleetScenario, FleetSim, FleetTruth, Simulation, TraceHasher,
};
use trace_model::{CountingSink, EventSink, StreamId, WindowId};

use crate::experiment::evaluate_decisions;
use crate::{ConfusionMatrix, EvalError, WindowLabel};

use std::sync::Arc;
use std::time::Duration;

/// Reference-segment length for the curated-model learning run. Long
/// enough for `K + 1` windows at the paper's 40 ms, short enough that the
/// per-stream model clones stay small at 100k streams.
const LEARN_REFERENCE: Duration = Duration::from_secs(3);

/// Total length of the learning run; the tail past the reference segment
/// forces the learning session over into its monitoring phase so the
/// model is actually fitted.
const LEARN_DURATION: Duration = Duration::from_secs(4);

/// A churn experiment: a [`FleetScenario`] plus the engine topology that
/// will reduce its trace.
///
/// ```rust,no_run
/// use endurance_eval::ChurnExperiment;
///
/// # fn main() -> Result<(), endurance_eval::EvalError> {
/// let experiment = ChurnExperiment::churn_demo(2_000, 42)?;
/// let result = experiment.run()?;
/// println!("trace hash  = {:016x}", result.trace_hash);
/// println!("fleet recall = {:.3}", result.confusion.recall());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ChurnExperiment {
    /// The fleet scenario under test (devices, churn, faults, seed).
    pub scenario: FleetScenario,
    /// The monitor configuration shared by both planes and the learning
    /// run (dimensions derived from the device template's registry).
    pub monitor: MonitorConfig,
    /// Collector-plane shard count.
    pub shards: usize,
    /// Health-plane worker-thread count.
    pub workers: usize,
    /// Metrics registry threaded through both planes and the simulator;
    /// disabled unless [`ChurnExperiment::with_metrics`] replaced it.
    registry: Arc<Registry>,
}

/// One stream's score against its injected ground truth.
#[derive(Debug, Clone)]
pub struct ChurnStreamScore {
    /// The stream (device index).
    pub stream: StreamId,
    /// Detection quality against the stream's own anomaly intervals.
    pub confusion: ConfusionMatrix,
    /// Number of monitored windows (decisions) on this stream.
    pub windows: usize,
    /// Whether the ground truth says this stream was anomalous at all.
    pub truly_anomalous: bool,
    /// Whether the monitor recorded at least one window.
    pub flagged: bool,
    /// Ids of the windows behind each true-positive decision, in stream
    /// order — the exact targets a reproduction extractor needs, so no
    /// re-scan of the recorded lane is ever required.
    pub tp_windows: Vec<WindowId>,
}

/// Everything measured by one churn run.
#[derive(Debug)]
pub struct ChurnResult {
    /// FNV-1a hash over every delivered `(stream, event)` pair, in
    /// delivery order — the determinism fingerprint.
    pub trace_hash: u64,
    /// Delivered events (including duplicates).
    pub events: u64,
    /// The injected ground truth, final after the drain.
    pub truth: FleetTruth,
    /// Fleet-wide delivery accounting (emitted, dropped, duplicated,
    /// reordered, regressed, stalled, delivered), summed over every
    /// stream's [`StreamTruth`](mm_sim::StreamTruth).
    pub delivery: DeliveryStats,
    /// Collector-plane outcome: one stream per shard plus the aggregate.
    pub collector: FleetOutcome,
    /// Health-plane aggregate report (per-stream counters merged).
    pub fleet: ReductionReport,
    /// Per-stream scores, sorted by stream id.
    pub streams: Vec<ChurnStreamScore>,
    /// Per-stream confusion matrices merged into one fleet-level matrix.
    pub confusion: ConfusionMatrix,
    /// Streams whose health-plane session failed (their score is absent).
    pub failed_streams: usize,
    /// Reference windows in the shared curated model.
    pub model_reference_windows: usize,
}

impl ChurnResult {
    /// Number of streams the ground truth marks anomalous.
    pub fn anomalous_streams(&self) -> usize {
        self.streams.iter().filter(|s| s.truly_anomalous).count()
    }

    /// Of the truly anomalous streams, how many the monitor flagged —
    /// stream-level recall under churn.
    pub fn flagged_anomalous_streams(&self) -> usize {
        self.streams
            .iter()
            .filter(|s| s.truly_anomalous && s.flagged)
            .count()
    }
}

impl ChurnExperiment {
    /// Builds an experiment around `scenario`, deriving the monitor's pmf
    /// dimensionality from the device template's registry.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::InvalidExperiment`] for a zero shard or worker
    /// count and propagates scenario validation errors.
    pub fn new(scenario: FleetScenario, shards: usize, workers: usize) -> Result<Self, EvalError> {
        if shards == 0 || workers == 0 {
            return Err(EvalError::InvalidExperiment(
                "a churn experiment needs at least one shard and one worker".into(),
            ));
        }
        scenario.validate()?;
        let registry = scenario.registry()?;
        let monitor = MonitorConfig::builder()
            .dimensions(registry.len())
            .reference_duration(LEARN_REFERENCE)
            .build()?;
        Ok(ChurnExperiment {
            scenario,
            monitor,
            shards,
            workers,
            registry: Registry::disabled(),
        })
    }

    /// Publishes the run's metrics into `registry`: the channel and
    /// session counters of both planes (`core_fleet_*`, `core_session_*`;
    /// the series are unlabelled, so the two planes add up) and the fleet
    /// simulator's queue gauge (`sim_fleet_*`). Attach a
    /// [`MetricsHub`](endurance_obs::MetricsHub) reporter to the same
    /// registry to watch the run live.
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<Registry>) -> Self {
        self.registry = registry;
        self
    }

    /// The demo churn scenario ([`FleetScenario::churn_demo`]) with a
    /// 4-shard collector and 4 health-plane workers.
    ///
    /// # Errors
    ///
    /// Propagates scenario construction errors.
    pub fn churn_demo(devices: u32, seed: u64) -> Result<Self, EvalError> {
        Self::new(FleetScenario::churn_demo(devices, seed)?, 4, 4)
    }

    /// Learns the shared curated reference model from a clean, fault-free
    /// run of the device template (`docs/SCENARIOS.md` §5: fleet
    /// monitoring scores every stream against one curated model; 0.8 s
    /// device lifetimes leave no room for per-stream learning).
    ///
    /// # Errors
    ///
    /// Propagates simulation and learning errors.
    pub fn learn_reference(&self) -> Result<ReferenceModel, EvalError> {
        let mut clean = self.scenario.device.clone();
        clean.name = format!("{}-reference", self.scenario.name);
        clean.duration = LEARN_DURATION;
        clean.reference_duration = LEARN_REFERENCE;
        clean.seed = self.scenario.seed;
        let registry = clean.registry()?;
        let mut simulation = Simulation::new(&clean, &registry)?;
        let mut session = ReductionSession::new(self.monitor.clone())?;
        session.push_source(&mut simulation)?;
        session.model().cloned().ok_or_else(|| {
            EvalError::InvalidExperiment(
                "the reference run ended before the learning phase completed".into(),
            )
        })
    }

    /// Runs the experiment: one pass over the simulated fleet trace
    /// feeding the collector plane, the health plane and the determinism
    /// hash, then scores every stream against its injected ground truth.
    ///
    /// # Errors
    ///
    /// Propagates simulation and reduction errors; per-stream session
    /// failures do *not* fail the run (they are counted in
    /// [`ChurnResult::failed_streams`]).
    pub fn run(&self) -> Result<ChurnResult, EvalError> {
        let model = self.learn_reference()?;
        let (result, _sinks) = self.run_inner(model, |_| CountingSink::new())?;
        Ok(result)
    }

    /// The shared engine behind [`ChurnExperiment::run`] and the durable
    /// variant (`run_durable`, in the `repro` module): one pass over the
    /// fleet trace with a caller-chosen per-stream sink factory. Returns
    /// the scored result plus every recovered per-stream sink (including
    /// sinks of failed streams, so durable writers can still be wound
    /// down cleanly).
    pub(crate) fn run_inner<S, F>(
        &self,
        model: ReferenceModel,
        sinks: F,
    ) -> Result<(ChurnResult, Vec<(StreamId, S)>), EvalError>
    where
        S: EventSink + Send + 'static,
        F: Fn(StreamId) -> S + Send + Sync + 'static,
    {
        let model_reference_windows = model.reference_windows();

        // Collector plane: a few shards absorb the whole fleet, every
        // stream pushed under its hash-assigned shard id. Each shard
        // *learns* its reference from the mixed stream it sees — the
        // collector reduces fleet volume, so its notion of "normal" is the
        // steady fleet mix, and what shifts it (fleet-wide load spikes) is
        // what gets recorded. Counting sinks — volume statistics without
        // holding the reduced trace in memory.
        let mut collector = FleetReducer::new(self.monitor.clone(), self.shards)?
            .with_metrics(Arc::clone(&self.registry));

        // Health plane: one session per stream against the shared model,
        // collecting per-window decisions for scoring.
        let mut fleet = FleetReducer::from_model(model, self.workers)?
            .with_sinks(sinks)
            .with_observers(|_| Vec::<WindowDecision>::new())
            .with_metrics(Arc::clone(&self.registry));

        let mut sim = FleetSim::new(&self.scenario)?.with_metrics(&self.registry);
        let mut hasher = TraceHasher::new();
        for fleet_event in sim.by_ref() {
            match fleet_event {
                FleetEvent::Delivery(stream, event) => {
                    hasher.update(stream, &event);
                    collector.push(shard_of(stream, self.shards), event)?;
                    fleet.push(stream, event)?;
                }
                FleetEvent::StreamClosed(stream) => {
                    fleet.close_stream(stream)?;
                }
            }
        }
        let events = sim.deliveries();
        let truth = sim.truth().clone();

        let mut collector_outcome = collector.finish()?;
        if let Some(panic) = collector_outcome.worker_panics.pop() {
            return Err(panic.into());
        }
        if let Some(shard) = collector_outcome.streams.iter().find(|s| !s.is_ok()) {
            return Err(EvalError::InvalidExperiment(format!(
                "collector shard {} failed: {}",
                shard.stream.as_u32(),
                shard.error.as_deref().unwrap_or("unknown")
            )));
        }

        let mut fleet_outcome = fleet.finish()?;
        if let Some(panic) = fleet_outcome.worker_panics.pop() {
            return Err(panic.into());
        }
        let aggregate = fleet_outcome.aggregate;
        let mut streams = Vec::with_capacity(fleet_outcome.streams.len());
        let mut sinks = Vec::with_capacity(fleet_outcome.streams.len());
        let mut confusion = ConfusionMatrix::default();
        let mut failed_streams = 0;
        for mut outcome in fleet_outcome.streams {
            if let Some(sink) = outcome.sink.take() {
                sinks.push((outcome.stream, sink));
            }
            if !outcome.is_ok() {
                failed_streams += 1;
                continue;
            }
            let stream_truth = truth.stream(outcome.stream.as_u32()).ok_or_else(|| {
                EvalError::InvalidExperiment(format!(
                    "stream {} delivered events but has no ground-truth record",
                    outcome.stream.as_u32()
                ))
            })?;
            let decisions = outcome
                .observer
                .as_deref()
                .unwrap_or(&[] as &[WindowDecision]);
            let evaluated = evaluate_decisions(&stream_truth.anomalous, decisions);
            let tp_windows = evaluated
                .labeled
                .iter()
                .filter(|labeled| labeled.label == WindowLabel::TruePositive)
                .map(|labeled| labeled.decision.window_id)
                .collect();
            confusion.merge(&evaluated.confusion);
            streams.push(ChurnStreamScore {
                stream: outcome.stream,
                confusion: evaluated.confusion,
                windows: decisions.len(),
                truly_anomalous: !stream_truth.anomalous.intervals().is_empty(),
                flagged: decisions.iter().any(WindowDecision::recorded),
                tp_windows,
            });
        }

        let delivery = truth.total_delivery();
        let result = ChurnResult {
            trace_hash: hasher.finish(),
            events,
            truth,
            delivery,
            collector: collector_outcome,
            fleet: aggregate,
            streams,
            confusion,
            failed_streams,
            model_reference_windows,
        };
        Ok((result, sinks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_topology_is_rejected() {
        let scenario = FleetScenario::churn_demo(10, 1).unwrap();
        assert!(matches!(
            ChurnExperiment::new(scenario.clone(), 0, 4),
            Err(EvalError::InvalidExperiment(_))
        ));
        assert!(matches!(
            ChurnExperiment::new(scenario, 4, 0),
            Err(EvalError::InvalidExperiment(_))
        ));
    }

    #[test]
    fn learned_reference_is_reusable() {
        let experiment = ChurnExperiment::churn_demo(10, 7).unwrap();
        let model = experiment.learn_reference().unwrap();
        assert!(model.reference_windows() > experiment.monitor.k);
        assert_eq!(model.config().dimensions, experiment.monitor.dimensions);
    }

    // Full churn runs (including the two-run determinism gate) live in
    // the workspace integration tests (`tests/fleet_churn.rs`), on a
    // fleet large enough to exercise every fault kind.
}
