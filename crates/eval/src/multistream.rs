//! Multi-stream experiment mode: several simulated devices reduced by one
//! engine.
//!
//! Real endurance rigs monitor a fleet — one trace stream per device under
//! test. This module simulates `N` independent workloads (same shape,
//! different seeds), funnels them through a single [`FleetReducer`] with
//! one session per stream, and evaluates every stream against its own
//! ground truth, alongside the merged aggregate report.

use std::sync::Mutex;
use std::time::Duration;

use endurance_core::{FleetReducer, ReductionReport, WindowDecision};
use mm_sim::Simulation;
use trace_model::{CountingSink, EventSink, InterleavedStreams, StreamId};

use crate::experiment::evaluate_decisions;
use crate::{ConfusionMatrix, EvalError, Experiment};

/// A fleet of per-stream experiments reduced by one engine.
///
/// Every stream keeps its own [`Experiment`] (scenario + ground truth);
/// the monitor configuration must be identical across streams because all
/// sessions of one engine share it.
#[derive(Debug, Clone)]
pub struct MultiStreamExperiment {
    streams: Vec<Experiment>,
}

/// One stream's share of a multi-stream run.
#[derive(Debug)]
pub struct StreamResult {
    /// Which stream this is.
    pub stream: StreamId,
    /// The stream's own reduction report.
    pub report: ReductionReport,
    /// Detection quality against the stream's own ground truth.
    pub confusion: ConfusionMatrix,
    /// The stream's monitor decisions, in stream order.
    pub decisions: Vec<WindowDecision>,
}

/// Everything measured by a multi-stream run.
#[derive(Debug)]
pub struct MultiStreamResult {
    /// The per-stream reports merged into one fleet-level report.
    pub aggregate: ReductionReport,
    /// Per-stream reports and detection quality.
    pub streams: Vec<StreamResult>,
    /// Per-stream confusion matrices merged into one fleet-level matrix.
    pub confusion: ConfusionMatrix,
}

/// One stream's share of an engine pass: what its session reported and
/// decided, and the sink it recorded into.
pub(crate) struct ReducedStream<S> {
    pub(crate) report: ReductionReport,
    pub(crate) decisions: Vec<WindowDecision>,
    pub(crate) sink: S,
}

impl MultiStreamExperiment {
    /// Builds a fleet from per-stream experiments.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::InvalidExperiment`] when no stream is given or
    /// the streams' monitor configurations differ.
    pub fn new(streams: Vec<Experiment>) -> Result<Self, EvalError> {
        let Some(first) = streams.first() else {
            return Err(EvalError::InvalidExperiment(
                "a multi-stream experiment needs at least one stream".into(),
            ));
        };
        if let Some(index) = streams.iter().position(|s| s.monitor != first.monitor) {
            return Err(EvalError::InvalidExperiment(format!(
                "stream {index} uses a different monitor configuration than stream 0; \
                 all sessions of one engine share a configuration"
            )));
        }
        Ok(MultiStreamExperiment { streams })
    }

    /// The paper's experiment scaled to `duration`, replicated over
    /// `streams` devices with seeds `base_seed..base_seed + streams`.
    ///
    /// # Errors
    ///
    /// Propagates scenario construction errors.
    pub fn scaled(duration: Duration, base_seed: u64, streams: usize) -> Result<Self, EvalError> {
        let experiments = (0..streams as u64)
            .map(|offset| Experiment::scaled(duration, base_seed + offset))
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(experiments)
    }

    /// Number of streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// The per-stream experiments.
    pub fn streams(&self) -> &[Experiment] {
        &self.streams
    }

    /// Runs the fleet: simulate every stream, interleave by timestamp,
    /// reduce through one engine (one session per stream), then label
    /// every stream against its own ground truth.
    ///
    /// # Errors
    ///
    /// Propagates simulation and reduction errors.
    pub fn run(&self) -> Result<MultiStreamResult, EvalError> {
        let sinks = vec![CountingSink::new(); self.streams.len()];
        let (aggregate, reduced) = self.reduce_into(sinks)?;
        let mut streams = Vec::with_capacity(reduced.len());
        let mut confusion = ConfusionMatrix::default();
        for (index, (experiment, stream)) in self.streams.iter().zip(reduced).enumerate() {
            let stream_confusion =
                evaluate_decisions(&experiment.scenario.perturbations, &stream.decisions).confusion;
            confusion.merge(&stream_confusion);
            streams.push(StreamResult {
                stream: StreamId::new(index as u32),
                report: stream.report,
                confusion: stream_confusion,
                decisions: stream.decisions,
            });
        }
        Ok(MultiStreamResult {
            aggregate,
            streams,
            confusion,
        })
    }

    /// The engine pass behind every run mode: simulates every stream,
    /// interleaves them by timestamp and reduces them through one
    /// [`FleetReducer`] with a session (and a worker) per stream, each
    /// seeing exactly the stream a standalone session would. Stream `i`
    /// records into `sinks[i]`: the caller builds the sinks on its own
    /// thread, so a sink that cannot be opened is refused before the
    /// first event. Returns the aggregate report and every stream's
    /// share, in stream order.
    ///
    /// # Errors
    ///
    /// Propagates simulation and reduction errors; a stream whose session
    /// failed (or a panicked worker) fails the whole pass.
    pub(crate) fn reduce_into<S>(
        &self,
        sinks: Vec<S>,
    ) -> Result<(ReductionReport, Vec<ReducedStream<S>>), EvalError>
    where
        S: EventSink + Send + 'static,
    {
        let simulations = self
            .streams
            .iter()
            .map(|stream| {
                let registry = stream.scenario.registry()?;
                Simulation::new(&stream.scenario, &registry)
            })
            .collect::<Result<Vec<_>, _>>()?;

        let bank = Mutex::new(sinks.into_iter().map(Some).collect::<Vec<_>>());
        let mut fleet = FleetReducer::new(self.streams[0].monitor.clone(), self.streams.len())?
            .with_sinks(move |stream: StreamId| {
                bank.lock().expect("no holder of the sink bank panics")[stream.index()]
                    .take()
                    .expect("a stream that is never closed opens one session")
            })
            .with_observers(|_| Vec::<WindowDecision>::new());
        for (stream, event) in InterleavedStreams::new(simulations) {
            fleet.push(stream, event)?;
        }
        let outcome = fleet.finish()?;
        if let Some(panic) = outcome.worker_panics.into_iter().next() {
            return Err(panic.into());
        }

        let mut reduced = Vec::with_capacity(self.streams.len());
        for stream in outcome.streams {
            if stream.stream.index() != reduced.len() {
                break;
            }
            match (stream.report, stream.observer, stream.sink) {
                (Some(report), Some(decisions), Some(sink)) => reduced.push(ReducedStream {
                    report,
                    decisions,
                    sink,
                }),
                _ => {
                    return Err(EvalError::InvalidExperiment(format!(
                        "{} failed: {}",
                        stream.stream,
                        stream.error.as_deref().unwrap_or("unknown")
                    )))
                }
            }
        }
        if reduced.len() != self.streams.len() {
            return Err(EvalError::InvalidExperiment(format!(
                "stream {} delivered no events, so it has no result",
                reduced.len()
            )));
        }
        Ok((outcome.aggregate, reduced))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use endurance_core::MonitorConfig;

    #[test]
    fn empty_fleet_is_rejected() {
        assert!(matches!(
            MultiStreamExperiment::new(Vec::new()),
            Err(EvalError::InvalidExperiment(_))
        ));
    }

    #[test]
    fn mismatched_monitors_are_rejected() {
        let a = Experiment::scaled(Duration::from_secs(520), 1).unwrap();
        let mut b = Experiment::scaled(Duration::from_secs(520), 2).unwrap();
        let registry = b.scenario.registry().unwrap();
        b.monitor = MonitorConfig::builder()
            .dimensions(registry.len())
            .k(5)
            .reference_duration(b.scenario.reference_duration)
            .build()
            .unwrap();
        assert!(matches!(
            MultiStreamExperiment::new(vec![a, b]),
            Err(EvalError::InvalidExperiment(_))
        ));
    }

    #[test]
    fn scaled_fleet_builds_distinct_seeds() {
        let fleet = MultiStreamExperiment::scaled(Duration::from_secs(520), 7, 3).unwrap();
        assert_eq!(fleet.stream_count(), 3);
        let seeds: Vec<u64> = fleet.streams().iter().map(|s| s.scenario.seed).collect();
        assert_eq!(seeds, vec![7, 8, 9]);
    }

    // A full multi-stream run is exercised by the integration tests in
    // `tests/sharded_pipeline.rs`, which compare it per stream against
    // standalone sessions.
}
