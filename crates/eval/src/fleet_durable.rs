//! Fleet-scale durable eval: the multi-stream experiment recorded to a
//! per-lane durable store, reopened cold, and re-verified from disk.
//!
//! This is the end-to-end exercise the ROADMAP asked for: every device of
//! the fleet records through its own `endurance-store` lane behind a
//! spooled writer thread under the fleet engine, the store is closed
//! (optionally compacted), reopened from scratch, and the per-stream
//! confusion matrices are **recomputed from what is actually on disk** —
//! a decision counts as a recorded positive only if its window survives
//! in the reopened store. Any gap between what the monitors reported and
//! what a post-mortem reader can replay surfaces as an error, not as
//! silently optimistic metrics.

use std::collections::HashSet;
use std::path::Path;

use endurance_core::{ReductionReport, WindowDecision, WindowVerdict};
use endurance_store::{
    CompactionReport, Compactor, LaneWriter, MaintenancePolicy, RecoveryReport, SpooledSink,
    StoreConfig, StoreReader,
};
use trace_model::{StreamId, TraceError};

use crate::experiment::evaluate_decisions;
use crate::multistream::ReducedStream;
use crate::{ConfusionMatrix, EvalError, MultiStreamExperiment, MultiStreamResult, StreamResult};

/// A [`MultiStreamResult`] plus everything a cold reopen of the fleet
/// store found.
#[derive(Debug)]
pub struct FleetDurableResult {
    /// The live run's result (aggregate report, per-stream confusion).
    pub result: MultiStreamResult,
    /// What reopening the store found (clean sidecars vs rescans, torn
    /// tails).
    pub recovery: RecoveryReport,
    /// What the post-close compaction pass changed, when one ran.
    pub compaction: Option<CompactionReport>,
    /// Windows counted on disk across every lane by the reopened reader.
    pub replayed_windows: u64,
    /// Events counted on disk across every lane.
    pub replayed_events: u64,
    /// Encoded payload bytes counted on disk across every lane — the
    /// *uncompressed* bytes the recorders handed to their sinks.
    pub replayed_payload_bytes: u64,
    /// Stored payload bytes counted on disk across every lane — what the
    /// payloads occupy under each lane's frame codec.
    pub replayed_stored_bytes: u64,
    /// Per-stream confusion recomputed from the reopened store: a window
    /// is a recorded positive iff it is replayable from its lane.
    pub replay_confusion: Vec<ConfusionMatrix>,
    /// The recomputed per-stream matrices merged into one fleet matrix.
    pub fleet_replay_confusion: ConfusionMatrix,
}

impl MultiStreamExperiment {
    /// Runs the fleet with every stream recording through its own store
    /// lane (behind a spooled writer thread) under the fleet engine,
    /// closes the store, reopens it cold and recomputes the per-stream
    /// metrics from disk.
    ///
    /// # Errors
    ///
    /// Propagates simulation, reduction and storage errors, and returns
    /// [`EvalError::InvalidExperiment`] when `dir` already holds a
    /// recorded run or when the reopened store disagrees with the live
    /// recorder accounting (windows, events, payload bytes, or the
    /// recomputed confusion matrices).
    pub fn run_durable(&self, dir: impl AsRef<Path>) -> Result<FleetDurableResult, EvalError> {
        self.run_durable_with(dir, StoreConfig::default(), None)
    }

    /// Like [`MultiStreamExperiment::run_durable`], with an explicit
    /// store configuration and an optional post-close compaction pass.
    ///
    /// A merge-only `maintenance` policy keeps the byte-for-byte
    /// agreement checks strict; a policy with a retention horizon drops
    /// old windows by design, so the on-disk set is verified as a subset
    /// of the recorded set instead and the replayed confusion is reported
    /// rather than compared.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MultiStreamExperiment::run_durable`].
    pub fn run_durable_with(
        &self,
        dir: impl AsRef<Path>,
        store: StoreConfig,
        maintenance: Option<MaintenancePolicy>,
    ) -> Result<FleetDurableResult, EvalError> {
        self.run_durable_with_stores(dir, |_| store, maintenance)
    }

    /// Like [`MultiStreamExperiment::run_durable_with`], with a per-lane
    /// store configuration: `store_for(stream)` configures the lane that
    /// records stream `stream`, so a fleet can mix frame codecs (or
    /// rotation policies) across devices in one store directory.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MultiStreamExperiment::run_durable`].
    pub fn run_durable_with_stores(
        &self,
        dir: impl AsRef<Path>,
        store_for: impl Fn(usize) -> StoreConfig,
        maintenance: Option<MaintenancePolicy>,
    ) -> Result<FleetDurableResult, EvalError> {
        let dir = dir.as_ref();
        let (report, closed) = self.record_into_lanes(dir, |lane| {
            LaneWriter::create(dir, lane, store_for(lane as usize))
        })?;

        let compaction = match &maintenance {
            Some(policy) => Some(Compactor::new(dir, *policy).compact()?),
            None => None,
        };
        // Retention legitimately drops windows, whether it ran post-close
        // (the `maintenance` pass) or inside the writer after rotations
        // (per-lane `maintenance` in the store config); only a
        // retention-free run can demand exact disk/recorder agreement.
        let strict = maintenance.map_or(true, |policy| policy.retention_ns.is_none())
            && (0..self.stream_count())
                .all(|stream| store_for(stream).maintenance.retention_ns.is_none());

        // Cold reopen: everything below this line trusts only the disk.
        let reader = StoreReader::open(dir)?;
        let recovery = reader.recovery().clone();
        let mut streams = Vec::with_capacity(closed.len());
        let mut confusion = ConfusionMatrix::default();
        let mut replay_confusion = Vec::with_capacity(closed.len());
        let mut fleet_replay_confusion = ConfusionMatrix::default();
        let mut replayed_windows = 0u64;
        let mut replayed_events = 0u64;
        let mut replayed_payload_bytes = 0u64;

        for (index, stream) in closed.into_iter().enumerate() {
            let (stream_report, decisions) = (stream.report, stream.decisions);
            let experiment = &self.streams()[index];
            let lane = index as u32;
            // A lane whose index fails to load must surface as a storage
            // error, not as "zero windows on disk".
            let entries = if stream_report.recorder.windows_recorded == 0 {
                reader.lane_windows(lane).unwrap_or(&[])
            } else {
                reader.lane_windows(lane)?
            };
            let lane_windows = entries.len() as u64;
            let lane_events: u64 = entries.iter().map(|w| u64::from(w.events)).sum();
            let lane_payload: u64 = entries.iter().map(|w| u64::from(w.payload_len())).sum();
            let disk_ids: HashSet<u64> = entries.iter().map(|w| w.window_id).collect();
            replayed_windows += lane_windows;
            replayed_events += lane_events;
            replayed_payload_bytes += lane_payload;

            let recorded_ids: HashSet<u64> = decisions
                .iter()
                .filter(|d| d.recorded())
                .map(|d| d.window_id.index())
                .collect();
            if strict {
                if lane_windows != stream_report.recorder.windows_recorded
                    || lane_events != stream_report.recorder.events_recorded
                    || lane_payload != stream_report.recorder.recorded_encoded_bytes
                    || disk_ids != recorded_ids
                {
                    return Err(EvalError::InvalidExperiment(format!(
                        "reopened lane {lane} disagrees with its live recorder: \
                         {lane_windows}/{lane_events} windows/events and {lane_payload} \
                         encoded bytes on disk vs {}/{} and {} reported",
                        stream_report.recorder.windows_recorded,
                        stream_report.recorder.events_recorded,
                        stream_report.recorder.recorded_encoded_bytes,
                    )));
                }
            } else if !disk_ids.is_subset(&recorded_ids) {
                return Err(EvalError::InvalidExperiment(format!(
                    "reopened lane {lane} holds windows the live run never recorded"
                )));
            }

            // Recompute the stream's confusion from disk: a decision is a
            // recorded positive iff its window is replayable.
            let disk_decisions: Vec<WindowDecision> = decisions
                .iter()
                .map(|decision| {
                    let mut decision = *decision;
                    decision.verdict = if disk_ids.contains(&decision.window_id.index()) {
                        WindowVerdict::Anomalous
                    } else if decision.verdict == WindowVerdict::Anomalous {
                        WindowVerdict::CheckedNormal
                    } else {
                        decision.verdict
                    };
                    decision
                })
                .collect();
            let stream_replay_confusion =
                evaluate_decisions(&experiment.scenario.perturbations, &disk_decisions).confusion;

            let evaluated = evaluate_decisions(&experiment.scenario.perturbations, &decisions);
            if strict && stream_replay_confusion != evaluated.confusion {
                return Err(EvalError::InvalidExperiment(format!(
                    "lane {lane}: confusion recomputed from the reopened store differs \
                     from the live run's"
                )));
            }
            confusion.merge(&evaluated.confusion);
            fleet_replay_confusion.merge(&stream_replay_confusion);
            replay_confusion.push(stream_replay_confusion);
            streams.push(StreamResult {
                stream: StreamId::new(lane),
                report: stream_report,
                confusion: evaluated.confusion,
                decisions,
            });
        }

        let replayed_stored_bytes = reader.total_stored_bytes();
        Ok(FleetDurableResult {
            result: MultiStreamResult {
                aggregate: report,
                streams,
                confusion,
            },
            recovery,
            compaction,
            replayed_windows,
            replayed_events,
            replayed_payload_bytes,
            replayed_stored_bytes,
            replay_confusion,
            fleet_replay_confusion,
        })
    }

    /// The recording half shared by the durable and live runs: opens one
    /// lane per stream with `create`, each behind a spooled writer thread
    /// so monitoring overlaps disk I/O per device, reduces the fleet into
    /// them, then drains each spool and closes each lane (writing its
    /// sidecar and publishing its final watermark). The lanes are opened
    /// before the first event, so a directory that already holds a run is
    /// refused up front. Returns the aggregate report and every stream's
    /// share (its sink closed and gone), in stream order.
    pub(crate) fn record_into_lanes(
        &self,
        dir: &Path,
        mut create: impl FnMut(u32) -> Result<LaneWriter, TraceError>,
    ) -> Result<(ReductionReport, Vec<ReducedStream<()>>), EvalError> {
        let mut lanes = Vec::with_capacity(self.stream_count());
        for lane in 0..self.stream_count() as u32 {
            let writer = create(lane)?;
            if writer.recovery().windows > 0 {
                return Err(EvalError::InvalidExperiment(format!(
                    "{} already holds a recorded run (lane {lane} has {} windows); \
                     recorded runs need a fresh directory so the recomputed metrics \
                     describe this run alone",
                    dir.display(),
                    writer.recovery().windows,
                )));
            }
            lanes.push(SpooledSink::new(writer));
        }
        let (aggregate, reduced) = self.reduce_into(lanes)?;
        let mut closed = Vec::with_capacity(reduced.len());
        for stream in reduced {
            stream.sink.finish()?.close()?;
            closed.push(ReducedStream {
                report: stream.report,
                decisions: stream.decisions,
                sink: (),
            });
        }
        Ok((aggregate, closed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Experiment;
    use mm_sim::{PerturbationSchedule, Scenario};
    use std::time::Duration;
    use trace_model::Timestamp;

    /// A compact perturbed fleet (60 s per device) so the durable
    /// round-trip stays fast; the scaled paper fleet is covered by the
    /// integration tests.
    fn small_fleet(devices: usize) -> MultiStreamExperiment {
        let streams = (0..devices as u64)
            .map(|device| {
                let perturbations = PerturbationSchedule::periodic(
                    Timestamp::from(Duration::from_secs(25)),
                    Duration::from_secs(20),
                    Duration::from_secs(5),
                    0.9,
                    Timestamp::from(Duration::from_secs(60)),
                )
                .unwrap();
                let scenario = Scenario::builder(&format!("fleet-durable-{device}"))
                    .duration(Duration::from_secs(60))
                    .reference_duration(Duration::from_secs(20))
                    .perturbations(perturbations)
                    .seed(11 + device)
                    .build()
                    .unwrap();
                Experiment::with_paper_monitor(scenario).unwrap()
            })
            .collect();
        MultiStreamExperiment::new(streams).unwrap()
    }

    #[test]
    fn fleet_durable_run_matches_the_in_memory_fleet_and_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "endurance-eval-fleet-durable-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let fleet = small_fleet(3);
        let live = fleet.run().unwrap();
        let durable = fleet.run_durable(&dir).unwrap();

        // Same deterministic simulations: identical per-stream results.
        assert_eq!(durable.result.streams.len(), live.streams.len());
        for (durable_stream, live_stream) in durable.result.streams.iter().zip(&live.streams) {
            assert_eq!(durable_stream.report, live_stream.report);
            assert_eq!(durable_stream.decisions, live_stream.decisions);
            assert_eq!(durable_stream.confusion, live_stream.confusion);
        }
        assert_eq!(durable.result.confusion, live.confusion);

        // The reopened store reproduces the fleet confusion exactly.
        assert!(durable.recovery.clean);
        assert_eq!(durable.replay_confusion.len(), 3);
        for (replayed, live_stream) in durable.replay_confusion.iter().zip(&live.streams) {
            assert_eq!(replayed, &live_stream.confusion);
        }
        assert_eq!(durable.fleet_replay_confusion, live.confusion);
        assert!(
            durable.replayed_windows > 0,
            "the perturbed fleet records anomalous windows"
        );

        // Reusing the directory is refused.
        let reused = fleet.run_durable(&dir);
        assert!(
            matches!(reused, Err(EvalError::InvalidExperiment(ref msg))
                if msg.contains("already holds a recorded run")),
            "{reused:?}"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mixed_codec_fleet_agrees_per_lane_and_compresses_where_configured() {
        use endurance_store::CodecId;
        let dir = std::env::temp_dir().join(format!(
            "endurance-eval-fleet-mixed-codec-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // One lane per codec: identity, delta-varint, lz-block.
        let fleet = small_fleet(3);
        let durable = fleet
            .run_durable_with_stores(
                &dir,
                |stream| {
                    StoreConfig::default()
                        .with_codec(CodecId::from_u8(stream as u8).expect("three codecs"))
                },
                None,
            )
            .unwrap();

        // Strict agreement held for every lane (the call succeeded), the
        // replayed confusion matches the in-memory fleet, and the two
        // compressed lanes actually shrank the store.
        let live = fleet.run().unwrap();
        assert_eq!(durable.fleet_replay_confusion, live.confusion);
        assert_eq!(
            durable.replayed_payload_bytes,
            live.streams
                .iter()
                .map(|s| s.report.recorder.recorded_encoded_bytes)
                .sum::<u64>()
        );
        assert!(
            durable.replayed_stored_bytes < durable.replayed_payload_bytes,
            "{} stored vs {} payload",
            durable.replayed_stored_bytes,
            durable.replayed_payload_bytes
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_durable_with_compaction_still_agrees_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!(
            "endurance-eval-fleet-compact-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let fleet = small_fleet(2);
        // Tiny segments force rotation; the merge-only pass consolidates
        // them and must not change a single replayed byte.
        let store = StoreConfig::default().with_segment_max_windows(2);
        let durable = fleet
            .run_durable_with(&dir, store, Some(MaintenancePolicy::merge_below(u64::MAX)))
            .unwrap();
        let compaction = durable.compaction.as_ref().unwrap();
        assert!(compaction.merged_runs() > 0, "{compaction}");
        assert_eq!(compaction.windows_dropped(), 0);

        let live = fleet.run().unwrap();
        assert_eq!(durable.fleet_replay_confusion, live.confusion);
        assert_eq!(
            durable.replayed_payload_bytes,
            live.streams
                .iter()
                .map(|s| s.report.recorder.recorded_encoded_bytes)
                .sum::<u64>()
        );

        std::fs::remove_dir_all(&dir).ok();
    }
}
