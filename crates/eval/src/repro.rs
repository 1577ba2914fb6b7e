//! Durable churn runs that auto-extract reproduction artifacts.
//!
//! The missing half of the incident loop: a churn run records every
//! stream's reduced trace to its own store lane, and when the scoring
//! pass labels a decision a true positive, the flagged window is
//! extracted from the reopened store — byte-for-byte, with context —
//! into a sealed [`ReproArtifact`], ready for `endurance-repro`'s
//! minimizer and corpus writer. Nothing re-scans the recorded lanes:
//! [`ChurnStreamScore::tp_windows`](crate::ChurnStreamScore::tp_windows)
//! names the exact windows to pull.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use endurance_repro::{extract_window, ReproArtifact, ReproError};
use endurance_store::{LaneWriter, RecoveryReport, StoreConfig, StoreReader, StoreWriter};
use trace_model::{EventSink, RecordMeta, StreamId, TraceError, TraceEvent, WindowId};

use crate::recorded::{check_cold_totals, refuse_used_dir};
use crate::{ChurnExperiment, ChurnResult, EvalError};

impl From<ReproError> for EvalError {
    fn from(err: ReproError) -> Self {
        EvalError::Repro(err)
    }
}

/// Per-stream durable sink: a store lane writer, or its creation
/// failure deferred until the first record. Fleet sink factories are
/// infallible and run lazily on worker threads, so a lane that cannot
/// be opened must fail the *stream* (isolated, counted in
/// [`ChurnResult::failed_streams`]) rather than panic the worker.
#[derive(Debug)]
enum LaneSink {
    Ready(Box<LaneWriter>),
    Failed(String),
}

impl LaneSink {
    fn create(writers: &StoreWriter, lane: u32, config: StoreConfig) -> Self {
        match writers.lane(lane, config) {
            Ok(writer) => LaneSink::Ready(Box::new(writer)),
            Err(err) => LaneSink::Failed(err.to_string()),
        }
    }

    fn deferred_error(msg: &str) -> TraceError {
        TraceError::Io(std::io::Error::other(msg.to_string()))
    }
}

impl EventSink for LaneSink {
    fn record(&mut self, events: &[TraceEvent]) -> Result<(), TraceError> {
        match self {
            LaneSink::Ready(writer) => writer.record(events),
            LaneSink::Failed(msg) => Err(Self::deferred_error(msg)),
        }
    }

    fn record_encoded(&mut self, events: &[TraceEvent], encoded: &[u8]) -> Result<(), TraceError> {
        match self {
            LaneSink::Ready(writer) => writer.record_encoded(events, encoded),
            LaneSink::Failed(msg) => Err(Self::deferred_error(msg)),
        }
    }

    fn record_window(
        &mut self,
        meta: &RecordMeta,
        events: &[TraceEvent],
        encoded: &[u8],
    ) -> Result<(), TraceError> {
        match self {
            LaneSink::Ready(writer) => writer.record_window(meta, events, encoded),
            LaneSink::Failed(msg) => Err(Self::deferred_error(msg)),
        }
    }

    fn recorded_events(&self) -> usize {
        match self {
            LaneSink::Ready(writer) => writer.recorded_events(),
            LaneSink::Failed(_) => 0,
        }
    }
}

/// A [`ChurnResult`] plus what the durable run left behind: the cold
/// reopen's recovery report and one sealed artifact per distinct
/// true-positive window.
#[derive(Debug)]
pub struct ChurnDurableResult {
    /// The scored churn run (identical scoring to the in-memory run).
    pub result: ChurnResult,
    /// What reopening the store found (clean sidecars vs rescans, torn
    /// tails).
    pub recovery: RecoveryReport,
    /// Store lanes the run recorded through (one per stream that
    /// delivered events).
    pub lanes: usize,
    /// One sealed, self-verifying artifact per distinct true-positive
    /// window across the fleet, in `(stream, window)` order.
    pub artifacts: Vec<ReproArtifact>,
    /// True-positive windows whose extraction did not reproduce the
    /// anomalous verdict under the stateless oracle, counted rather than
    /// silently dropped. Rare but not zero: the benchmark's `churn`
    /// workload measures about one in four thousand (seed 128, lane 670,
    /// window 50 re-runs as `CheckedNormal`); the cause is open.
    pub skipped_targets: usize,
}

impl ChurnExperiment {
    /// Runs the experiment with every stream recording through its own
    /// store lane (configured by `store`), reopens the store cold, and
    /// extracts one sealed [`ReproArtifact`] — the flagged window plus up
    /// to `context` recorded neighbours on each side — for every distinct
    /// window behind a true-positive decision.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::InvalidExperiment`] when `dir` already holds
    /// a recorded run, when a stream's lane writer could not be opened,
    /// or when the reopened store does not hold exactly the windows,
    /// events and payload bytes the recorders counted (checked when no
    /// stream failed — a failed stream legitimately leaves less on
    /// disk); propagates simulation, reduction, storage and extraction
    /// errors.
    pub fn run_durable(
        &self,
        dir: impl AsRef<Path>,
        store: StoreConfig,
        context: usize,
    ) -> Result<ChurnDurableResult, EvalError> {
        let dir = dir.as_ref();
        refuse_used_dir(dir)?;

        let model = self.learn_reference()?;
        // One handle for the fleet's lanes, created lazily on the worker
        // threads: a new device never pays for listing its neighbours.
        let writers = Arc::new(StoreWriter::open(dir)?);
        let (result, sinks) = self.run_inner(model.clone(), move |stream: StreamId| {
            LaneSink::create(&writers, stream.as_u32(), store)
        })?;

        // Wind the storage layer down cleanly: close every lane
        // (writing its sidecar) before anything trusts the disk.
        let lanes = sinks.len();
        for (stream, sink) in sinks {
            match sink {
                LaneSink::Ready(writer) => writer.close()?,
                LaneSink::Failed(msg) => {
                    return Err(EvalError::InvalidExperiment(format!(
                        "stream {} could not open its store lane: {msg}",
                        stream.as_u32()
                    )))
                }
            }
        }

        // Cold reopen: extraction below trusts only the disk.
        let reader = StoreReader::open(dir)?;
        if result.failed_streams == 0 {
            check_cold_totals(&reader, &result.fleet.recorder)?;
        }
        let recovery = reader.recovery().clone();
        let mut artifacts = Vec::new();
        let mut skipped_targets = 0;
        for score in &result.streams {
            let lane = score.stream.as_u32();
            let targets: BTreeSet<u64> = score.tp_windows.iter().map(|id| id.index()).collect();
            for window_id in targets {
                let name = format!("{}-s{}-w{}", self.scenario.name, lane, window_id);
                match extract_window(
                    &reader,
                    lane,
                    WindowId::new(window_id),
                    context,
                    &self.monitor,
                    &model,
                    name,
                ) {
                    Ok(artifact) => artifacts.push(artifact),
                    Err(ReproError::NotReproduced(_)) => skipped_targets += 1,
                    Err(err) => return Err(err.into()),
                }
            }
        }

        Ok(ChurnDurableResult {
            result,
            recovery,
            lanes,
            artifacts,
            skipped_targets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_run_is_checked_against_the_reopened_store() {
        let dir = std::env::temp_dir().join(format!("endurance-eval-churn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // A healthy run passes the recorder-vs-disk check and extracts
        // its true positives.
        let scenario = mm_sim::FleetScenario::churn_demo(60, 42).unwrap();
        let experiment = ChurnExperiment::new(scenario, 1, 2).unwrap();
        let durable = experiment
            .run_durable(&dir, StoreConfig::default(), 2)
            .unwrap();
        assert_eq!(durable.result.failed_streams, 0);
        assert!(!durable.artifacts.is_empty());
        let recorder = durable.result.fleet.recorder;
        let reader = StoreReader::open(&dir).unwrap();
        check_cold_totals(&reader, &recorder).unwrap();

        // The run's model was rendered and parsed back once: every
        // artifact holds that one text and scores with that one fit. And
        // the memo changed no byte: a freshly learned, never-embedded
        // equal model extracts the same artifact.
        let first = &durable.artifacts[0];
        assert!(durable.artifacts.len() > 1);
        for artifact in &durable.artifacts {
            assert!(std::ptr::eq(artifact.model.json(), first.model.json()));
            assert!(std::ptr::eq(
                artifact.reference_model().lof(),
                first.reference_model().lof()
            ));
        }
        for artifact in durable.artifacts.iter().take(3) {
            let target = artifact
                .windows
                .iter()
                .find(|window| window.start_ns == artifact.target_start_ns)
                .unwrap();
            let cold = extract_window(
                &reader,
                artifact.lane,
                WindowId::new(target.window_id),
                2,
                &experiment.monitor,
                &experiment.learn_reference().unwrap(),
                artifact.name.clone(),
            )
            .unwrap();
            assert_eq!(cold.to_bytes().unwrap(), artifact.to_bytes().unwrap());
            assert!(!std::ptr::eq(cold.model.json(), first.model.json()));
        }
        drop(reader);

        // Lose one recorded lane behind the run's back: the same check
        // now names the gap instead of letting extraction trust the disk.
        let lane = durable.artifacts[0].lane;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with(&format!("lane{lane:04}-")) {
                std::fs::remove_file(path).unwrap();
            }
        }
        let gap = check_cold_totals(&StoreReader::open(&dir).unwrap(), &recorder);
        assert!(
            matches!(gap, Err(EvalError::InvalidExperiment(ref msg))
                if msg.contains("the reopened store disagrees with the live recorder")),
            "{gap:?}"
        );

        std::fs::remove_dir_all(&dir).ok();
    }
}
