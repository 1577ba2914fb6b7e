//! Live-follower eval: the multi-stream experiment recorded through the
//! serving layer while one tail subscription per lane follows the commit
//! stream, and the per-stream confusion matrices recomputed from what the
//! followers actually received.
//!
//! This is the online counterpart of [`crate::FleetDurableResult`]: where
//! the durable run trusts only a cold reopen of the disk, the live run
//! trusts only the windows a follower was handed *while the writers were
//! still appending*. Every follower must receive every committed window
//! exactly once, in commit order, byte-for-byte identical to a cold
//! [`Snapshot`] replay — and the confusion matrices recomputed from the
//! followed stream must match both the live monitors and the disk. Any
//! gap (a dropped window, a duplicate, a divergent byte, a disagreeing
//! matrix) surfaces as an error, not as silently optimistic metrics.

use std::collections::HashSet;
use std::path::Path;
use std::time::Duration;

use endurance_core::{WindowDecision, WindowVerdict};
use endurance_serve::{
    ServeHandle, SubscribeOptions, Subscription, SubscriptionStats, SubscriptionStep,
};
use endurance_store::{Snapshot, StoreConfig};
use trace_model::StreamId;

use crate::experiment::evaluate_decisions;
use crate::{ConfusionMatrix, EvalError, MultiStreamExperiment, MultiStreamResult, StreamResult};

/// How long a follower waits per `recv` before re-checking; the writers
/// run concurrently, so quiet stretches only mean the reducer is busy.
const FOLLOW_QUANTUM: Duration = Duration::from_secs(1);

/// A [`MultiStreamResult`] plus everything the live followers received
/// and the cold snapshot they were verified against.
#[derive(Debug)]
pub struct FleetLiveResult {
    /// The live run's result (aggregate report, per-stream confusion).
    pub result: MultiStreamResult,
    /// Final lag/drop accounting of each lane's follower, in lane order.
    pub follower_stats: Vec<SubscriptionStats>,
    /// Windows delivered to followers across every lane.
    pub followed_windows: u64,
    /// Events delivered to followers across every lane.
    pub followed_events: u64,
    /// Encoded payload bytes delivered to followers across every lane —
    /// verified byte-for-byte against a cold snapshot of the store.
    pub followed_payload_bytes: u64,
    /// Per-stream confusion recomputed from the followed stream: a window
    /// is a recorded positive iff a follower received it.
    pub live_confusion: Vec<ConfusionMatrix>,
    /// The recomputed per-stream matrices merged into one fleet matrix.
    pub fleet_live_confusion: ConfusionMatrix,
}

/// What one lane's follower accumulated by the time its subscription
/// ended.
struct Followed {
    ids: Vec<u64>,
    events: u64,
    payload: Vec<u8>,
    stats: SubscriptionStats,
}

/// Drains one subscription to its end, accumulating every delivered
/// window in order.
fn follow(subscription: Subscription) -> Result<Followed, String> {
    let mut ids = Vec::new();
    let mut events = 0u64;
    let mut payload = Vec::new();
    loop {
        match subscription
            .recv(FOLLOW_QUANTUM)
            .map_err(|error| error.to_string())?
        {
            SubscriptionStep::Window(window) => {
                ids.push(window.entry.window_id);
                events += u64::from(window.entry.events);
                payload.extend_from_slice(&window.payload);
            }
            SubscriptionStep::TimedOut => continue,
            SubscriptionStep::Ended => {
                let stats = subscription.stats();
                return Ok(Followed {
                    ids,
                    events,
                    payload,
                    stats,
                });
            }
        }
    }
}

impl MultiStreamExperiment {
    /// Runs the fleet with every stream recording through a serving
    /// handle's store lane (behind a spooled writer thread) while one
    /// tail subscription per lane follows the commit stream live, then
    /// verifies the followed streams byte-for-byte against a cold
    /// [`Snapshot`] and recomputes the per-stream metrics from what the
    /// followers received.
    ///
    /// # Errors
    ///
    /// Propagates simulation, reduction and storage errors, and returns
    /// [`EvalError::InvalidExperiment`] when `dir` already holds a
    /// recorded run or when a follower's stream disagrees with the live
    /// recorder accounting or the cold snapshot (windows, events,
    /// payload bytes, or the recomputed confusion matrices).
    pub fn run_live(&self, dir: impl AsRef<Path>) -> Result<FleetLiveResult, EvalError> {
        self.run_live_with(dir, |_| StoreConfig::default())
    }

    /// Like [`MultiStreamExperiment::run_live`], with a per-lane store
    /// configuration: `store_for(stream)` configures the lane that
    /// records stream `stream`.
    ///
    /// In-writer maintenance is refused up front: a maintenance pass
    /// rewrites the lane layout mid-run, which (by design) lapses live
    /// followers, so a maintained lane cannot be scored from its
    /// followed stream.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MultiStreamExperiment::run_live`].
    pub fn run_live_with(
        &self,
        dir: impl AsRef<Path>,
        store_for: impl Fn(usize) -> StoreConfig,
    ) -> Result<FleetLiveResult, EvalError> {
        let dir = dir.as_ref();
        for lane in 0..self.stream_count() {
            let policy = store_for(lane).maintenance;
            if policy.small_segment_bytes > 0
                || policy.retention_ns.is_some()
                || policy.recompress.is_some()
            {
                return Err(EvalError::InvalidExperiment(format!(
                    "lane {lane} enables in-writer maintenance; maintenance rewrites the \
                     lane layout mid-run and lapses live followers, so a live-scored run \
                     must record with maintenance disabled"
                )));
            }
        }

        // Subscribe every lane *before* its writer exists: followers must
        // receive the lane from its first committed window.
        let serve = ServeHandle::open(dir)?;
        let followers: Vec<std::thread::JoinHandle<Result<Followed, String>>> = (0..self
            .stream_count())
            .map(|lane| {
                let subscription = serve.subscribe_with(
                    lane as u32,
                    SubscribeOptions {
                        buffer: 256,
                        ..SubscribeOptions::default()
                    },
                );
                std::thread::spawn(move || follow(subscription))
            })
            .collect();

        // Every lane's writer is created by the serving handle, so its
        // commit log feeds the lane's follower: monitoring, disk I/O and
        // live scoring all overlap per device. Closing a lane ends its
        // subscription once the follower drains the tail.
        let (report, closed) = self.record_into_lanes(dir, |lane| {
            serve.create_writer(lane, store_for(lane as usize))
        })?;

        let followed = followers
            .into_iter()
            .enumerate()
            .map(|(lane, handle)| {
                handle
                    .join()
                    .map_err(|_| {
                        EvalError::InvalidExperiment(format!("lane {lane}: follower panicked"))
                    })?
                    .map_err(|error| {
                        EvalError::InvalidExperiment(format!(
                            "lane {lane}: follower failed: {error}"
                        ))
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;

        // Cold verification: a fresh snapshot trusts only the disk; every
        // follower's accumulated stream must reproduce it byte-for-byte.
        let snapshot = Snapshot::open(dir)?;
        let mut streams = Vec::with_capacity(closed.len());
        let mut confusion = ConfusionMatrix::default();
        let mut live_confusion = Vec::with_capacity(closed.len());
        let mut fleet_live_confusion = ConfusionMatrix::default();
        let mut follower_stats = Vec::with_capacity(closed.len());
        let mut followed_windows = 0u64;
        let mut followed_events = 0u64;
        let mut followed_payload_bytes = 0u64;

        for (index, stream) in closed.into_iter().enumerate() {
            let (stream_report, decisions) = (stream.report, stream.decisions);
            let experiment = &self.streams()[index];
            let lane = index as u32;
            let lane_followed = &followed[index];
            if lane_followed.stats.dropped > 0 {
                return Err(EvalError::InvalidExperiment(format!(
                    "lane {lane}: follower dropped {} windows while draining; an \
                     exactly-once live score needs a buffer the consumer keeps up with",
                    lane_followed.stats.dropped,
                )));
            }

            // The followed stream must be exactly the committed lane, in
            // commit order, byte-for-byte.
            let disk_ids: Vec<u64> = snapshot
                .lane_windows(lane)
                .map(|entries| entries.iter().map(|w| w.window_id).collect())
                .unwrap_or_default();
            if lane_followed.ids != disk_ids {
                return Err(EvalError::InvalidExperiment(format!(
                    "lane {lane}: follower received windows {:?} but the cold snapshot \
                     holds {:?}",
                    lane_followed.ids, disk_ids,
                )));
            }
            if !disk_ids.is_empty() && lane_followed.payload != snapshot.lane_payload_bytes(lane)? {
                return Err(EvalError::InvalidExperiment(format!(
                    "lane {lane}: followed payload differs from the cold snapshot's \
                     ({} bytes followed vs {} on disk)",
                    lane_followed.payload.len(),
                    snapshot.lane_payload_bytes(lane)?.len(),
                )));
            }
            if lane_followed.ids.len() as u64 != stream_report.recorder.windows_recorded
                || lane_followed.events != stream_report.recorder.events_recorded
                || lane_followed.payload.len() as u64
                    != stream_report.recorder.recorded_encoded_bytes
            {
                return Err(EvalError::InvalidExperiment(format!(
                    "lane {lane} disagrees with its live recorder: {}/{} windows/events \
                     and {} encoded bytes followed vs {}/{} and {} reported",
                    lane_followed.ids.len(),
                    lane_followed.events,
                    lane_followed.payload.len(),
                    stream_report.recorder.windows_recorded,
                    stream_report.recorder.events_recorded,
                    stream_report.recorder.recorded_encoded_bytes,
                )));
            }
            followed_windows += lane_followed.ids.len() as u64;
            followed_events += lane_followed.events;
            followed_payload_bytes += lane_followed.payload.len() as u64;

            // Recompute the stream's confusion from the followed stream:
            // a decision is a recorded positive iff a follower got it.
            let followed_ids: HashSet<u64> = lane_followed.ids.iter().copied().collect();
            let live_decisions: Vec<WindowDecision> = decisions
                .iter()
                .map(|decision| {
                    let mut decision = *decision;
                    decision.verdict = if followed_ids.contains(&decision.window_id.index()) {
                        WindowVerdict::Anomalous
                    } else if decision.verdict == WindowVerdict::Anomalous {
                        WindowVerdict::CheckedNormal
                    } else {
                        decision.verdict
                    };
                    decision
                })
                .collect();
            let stream_live_confusion =
                evaluate_decisions(&experiment.scenario.perturbations, &live_decisions).confusion;

            let evaluated = evaluate_decisions(&experiment.scenario.perturbations, &decisions);
            if stream_live_confusion != evaluated.confusion {
                return Err(EvalError::InvalidExperiment(format!(
                    "lane {lane}: confusion recomputed from the followed stream differs \
                     from the live run's"
                )));
            }
            confusion.merge(&evaluated.confusion);
            fleet_live_confusion.merge(&stream_live_confusion);
            live_confusion.push(stream_live_confusion);
            follower_stats.push(lane_followed.stats);
            streams.push(StreamResult {
                stream: StreamId::new(lane),
                report: stream_report,
                confusion: evaluated.confusion,
                decisions,
            });
        }

        Ok(FleetLiveResult {
            result: MultiStreamResult {
                aggregate: report,
                streams,
                confusion,
            },
            follower_stats,
            followed_windows,
            followed_events,
            followed_payload_bytes,
            live_confusion,
            fleet_live_confusion,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Experiment;
    use endurance_store::MaintenancePolicy;
    use mm_sim::{PerturbationSchedule, Scenario};
    use trace_model::Timestamp;

    /// A compact perturbed fleet (60 s per device), mirroring the durable
    /// eval's test fleet so the live and durable paths stay comparable.
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
                let scenario = Scenario::builder(&format!("fleet-live-{device}"))
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
    fn live_followed_fleet_matches_the_in_memory_and_durable_runs() {
        let dir = std::env::temp_dir().join(format!("endurance-eval-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let fleet = small_fleet(3);
        let live = fleet.run().unwrap();
        let followed = fleet.run_live(&dir).unwrap();

        // Same deterministic simulations: identical per-stream results.
        assert_eq!(followed.result.streams.len(), live.streams.len());
        for (followed_stream, live_stream) in followed.result.streams.iter().zip(&live.streams) {
            assert_eq!(followed_stream.report, live_stream.report);
            assert_eq!(followed_stream.decisions, live_stream.decisions);
            assert_eq!(followed_stream.confusion, live_stream.confusion);
        }
        assert_eq!(followed.result.confusion, live.confusion);

        // The followed streams reproduce the fleet confusion exactly and
        // every follower ended cleanly without drops.
        assert_eq!(followed.live_confusion.len(), 3);
        for (replayed, live_stream) in followed.live_confusion.iter().zip(&live.streams) {
            assert_eq!(replayed, &live_stream.confusion);
        }
        assert_eq!(followed.fleet_live_confusion, live.confusion);
        assert!(
            followed.followed_windows > 0,
            "the perturbed fleet records anomalous windows"
        );
        for stats in &followed.follower_stats {
            assert_eq!(stats.dropped, 0);
            assert!(stats.ended);
        }

        // The live and durable scorings agree with each other too.
        let durable_dir = dir.join("durable");
        let durable = fleet.run_durable(&durable_dir).unwrap();
        assert_eq!(followed.followed_windows, durable.replayed_windows);
        assert_eq!(followed.followed_events, durable.replayed_events);
        assert_eq!(
            followed.followed_payload_bytes,
            durable.replayed_payload_bytes
        );
        assert_eq!(
            followed.fleet_live_confusion,
            durable.fleet_replay_confusion
        );

        // Reusing the directory is refused.
        let reused = fleet.run_live(&dir);
        assert!(
            matches!(reused, Err(EvalError::InvalidExperiment(ref msg))
                if msg.contains("already holds a recorded run")),
            "{reused:?}"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_run_refuses_in_writer_maintenance() {
        let dir =
            std::env::temp_dir().join(format!("endurance-eval-live-maint-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fleet = small_fleet(1);
        let refused = fleet.run_live_with(&dir, |_| {
            StoreConfig::default().with_maintenance(MaintenancePolicy::merge_below(1 << 20))
        });
        assert!(
            matches!(refused, Err(EvalError::InvalidExperiment(ref msg))
                if msg.contains("maintenance")),
            "{refused:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
