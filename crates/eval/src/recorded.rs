//! Recorded runs: the fleet records to a per-lane durable store, and is
//! then scored from what an *independent observer* of that store holds.
//!
//! The paper's reduction ratios only become operational wins when the
//! recorded windows are still what a later reader gets back. A recorded
//! run is therefore [`MultiStreamExperiment::record_into_lanes`] followed
//! by one scorer ([`score`]) over per-lane [`LaneEvidence`]: the window
//! ids, events and payload bytes an observer that never saw the monitors
//! can vouch for. Two observers exist:
//!
//! * the **cold** one ([`MultiStreamExperiment::run_durable`]) closes the
//!   store (optionally compacting it), reopens it from scratch and trusts
//!   only the [`StoreReader`];
//! * the **live** one ([`MultiStreamExperiment::run_live`]) trusts only
//!   the windows a tail subscription was handed *while the writers were
//!   still appending*, after checking them byte-for-byte against a cold
//!   [`Snapshot`].
//!
//! Either way a decision counts as a recorded positive only if the
//! observer holds its window, and any gap between what the monitors
//! reported and what the observer holds (a lost window, a duplicate, a
//! stray one, a disagreeing matrix) is an error, not silently optimistic
//! metrics. Both results embed the same [`Observed`], so "followed ≡
//! cold" is one `==`.

use std::collections::HashSet;
use std::path::Path;
use std::time::Duration;

use endurance_core::{RecorderStats, ReductionReport, WindowDecision, WindowVerdict};
use endurance_serve::{
    ServeHandle, SubscribeOptions, Subscription, SubscriptionStats, SubscriptionStep,
};
use endurance_store::{
    CompactionReport, Compactor, LaneWriter, MaintenancePolicy, RecoveryReport, Snapshot,
    StoreConfig, StoreReader, StoreWriter, WindowEntry,
};
use trace_model::{StreamId, TraceError};

use crate::experiment::evaluate_decisions;
use crate::multistream::ReducedStream;
use crate::{
    ConfusionMatrix, EvalError, Experiment, MultiStreamExperiment, MultiStreamResult, StreamResult,
};

/// How long a follower waits per `recv` before re-checking; the writers
/// run concurrently, so quiet stretches only mean the reducer is busy.
const FOLLOW_QUANTUM: Duration = Duration::from_secs(1);

/// What an independent observer of the store held, and the detection
/// quality recomputed from it alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observed {
    /// Windows the observer held, across every lane.
    pub windows: u64,
    /// Events in those windows.
    pub events: u64,
    /// Encoded payload bytes of those windows — the *uncompressed* bytes
    /// the recorders handed to their sinks.
    pub payload_bytes: u64,
    /// Per-stream confusion recomputed from the observer: a window is a
    /// recorded positive iff the observer held it.
    pub confusion: Vec<ConfusionMatrix>,
    /// The recomputed per-stream matrices merged into one fleet matrix.
    pub fleet_confusion: ConfusionMatrix,
}

/// A [`MultiStreamResult`] plus what a cold reopen of the fleet store
/// found.
#[derive(Debug)]
pub struct FleetDurableResult {
    /// The live run's result (aggregate report, per-stream confusion).
    pub result: MultiStreamResult,
    /// What the reopened store held, and the confusion recomputed from it.
    pub observed: Observed,
    /// What reopening the store found (clean sidecars vs rescans, torn
    /// tails).
    pub recovery: RecoveryReport,
    /// What the post-close compaction pass changed, when one ran.
    pub compaction: Option<CompactionReport>,
    /// Stored payload bytes across every lane — what the payloads occupy
    /// on disk under each lane's frame codec.
    pub stored_bytes: u64,
}

impl FleetDurableResult {
    /// Payload bytes over stored bytes: 1.0 for an identity store, above
    /// it when the frame codecs shrank the recorded windows. `None` when
    /// nothing was recorded.
    pub fn compression_ratio(&self) -> Option<f64> {
        (self.stored_bytes > 0)
            .then(|| self.observed.payload_bytes as f64 / self.stored_bytes as f64)
    }
}

/// A [`MultiStreamResult`] plus what the live followers received.
#[derive(Debug)]
pub struct FleetLiveResult {
    /// The live run's result (aggregate report, per-stream confusion).
    pub result: MultiStreamResult,
    /// What the followers were handed — verified byte-for-byte against a
    /// cold snapshot of the store — and the confusion recomputed from it.
    pub observed: Observed,
    /// Final lag/drop accounting of each lane's follower, in lane order.
    pub follower_stats: Vec<SubscriptionStats>,
}

/// What one observer vouches for on one lane (or, for
/// [`check_cold_totals`], on a whole store).
#[derive(Debug, Default)]
pub(crate) struct LaneEvidence {
    /// Ids of the windows held, in the order the observer met them.
    ids: Vec<u64>,
    events: u64,
    payload_bytes: u64,
}

impl LaneEvidence {
    /// Adds the cold observer's view: index entries of a reopened lane.
    fn absorb(&mut self, entries: &[WindowEntry]) {
        for entry in entries {
            self.ids.push(entry.window_id);
            self.events += u64::from(entry.events);
            self.payload_bytes += u64::from(entry.payload_len());
        }
    }

    /// Demands that the evidence accounts for exactly the windows, events
    /// and payload bytes `recorder` counted.
    fn check_counts(&self, what: &str, recorder: &RecorderStats) -> Result<(), EvalError> {
        let observed = (self.ids.len() as u64, self.events, self.payload_bytes);
        let reported = (
            recorder.windows_recorded,
            recorder.events_recorded,
            recorder.recorded_encoded_bytes,
        );
        if observed == reported {
            return Ok(());
        }
        Err(EvalError::InvalidExperiment(format!(
            "{what} disagrees with the live recorder: {observed:?} (windows, events, \
             encoded bytes) observed vs {reported:?} reported"
        )))
    }
}

/// Refuses a directory that already holds store lanes. Called before any
/// writer exists: opening a writer runs recovery (truncating torn tails,
/// finishing interrupted merges), and a refusal must leave the directory
/// exactly as it found it.
pub(crate) fn refuse_used_dir(dir: &Path) -> Result<(), EvalError> {
    if !dir.exists() {
        return Ok(());
    }
    let lanes = StoreReader::open(dir)?.lane_ids();
    match lanes.first() {
        None => Ok(()),
        Some(first) => Err(EvalError::InvalidExperiment(format!(
            "{} already holds a recorded run ({} lane(s), from lane {first}); recorded runs \
             need a fresh directory so the recomputed metrics describe this run alone",
            dir.display(),
            lanes.len(),
        ))),
    }
}

/// Demands that the windows, events and payload bytes a cold `reader`
/// lists over all its lanes are exactly what `recorder` counted.
pub(crate) fn check_cold_totals(
    reader: &StoreReader,
    recorder: &RecorderStats,
) -> Result<(), EvalError> {
    let mut cold = LaneEvidence::default();
    for lane in reader.lane_ids() {
        cold.absorb(reader.lane_windows(lane)?);
    }
    cold.check_counts("the reopened store", recorder)
}

/// The one recorded-run scorer: checks every stream's evidence against
/// its recorder and decisions, recomputes its confusion matrix with "the
/// observer held the window" as the prediction, and merges.
///
/// Without `retention` nothing may legitimately drop a window, so the
/// evidence must account for exactly the recorded windows (counts, id
/// set, and an unchanged matrix). With it — a retention horizon ran over
/// the lanes — the evidence need only be a subset of the recorded set,
/// and the recomputed matrices are reported rather than compared.
fn score(
    streams: &[Experiment],
    aggregate: ReductionReport,
    recorded: Vec<ReducedStream<()>>,
    evidence: &[LaneEvidence],
    retention: bool,
) -> Result<(MultiStreamResult, Observed), EvalError> {
    let mut result = MultiStreamResult {
        aggregate,
        streams: Vec::with_capacity(recorded.len()),
        confusion: ConfusionMatrix::default(),
    };
    let mut observed = Observed::default();
    for (lane, ((experiment, stream), evidence)) in
        streams.iter().zip(recorded).zip(evidence).enumerate()
    {
        let held: HashSet<u64> = evidence.ids.iter().copied().collect();
        let recorded_ids: HashSet<u64> = stream
            .decisions
            .iter()
            .filter(|decision| decision.recorded())
            .map(|decision| decision.window_id.index())
            .collect();
        let agrees = if retention {
            held.is_subset(&recorded_ids)
        } else {
            evidence.check_counts(&format!("lane {lane}"), &stream.report.recorder)?;
            held == recorded_ids
        };
        if !agrees {
            return Err(EvalError::InvalidExperiment(format!(
                "lane {lane}: the observed windows are not the recorded ones ({} never \
                 recorded, {} recorded but not observed)",
                held.difference(&recorded_ids).count(),
                recorded_ids.difference(&held).count(),
            )));
        }

        let reverdicted: Vec<WindowDecision> = stream
            .decisions
            .iter()
            .map(|decision| WindowDecision {
                verdict: match (held.contains(&decision.window_id.index()), decision.verdict) {
                    (true, _) => WindowVerdict::Anomalous,
                    (false, WindowVerdict::Anomalous) => WindowVerdict::CheckedNormal,
                    (false, verdict) => verdict,
                },
                ..*decision
            })
            .collect();
        let perturbations = &experiment.scenario.perturbations;
        let recomputed = evaluate_decisions(perturbations, &reverdicted).confusion;
        let confusion = evaluate_decisions(perturbations, &stream.decisions).confusion;
        if !retention && recomputed != confusion {
            return Err(EvalError::InvalidExperiment(format!(
                "lane {lane}: confusion recomputed from the observed windows differs from \
                 the live run's"
            )));
        }

        observed.windows += evidence.ids.len() as u64;
        observed.events += evidence.events;
        observed.payload_bytes += evidence.payload_bytes;
        observed.fleet_confusion.merge(&recomputed);
        observed.confusion.push(recomputed);
        result.confusion.merge(&confusion);
        result.streams.push(StreamResult {
            stream: StreamId::new(lane as u32),
            report: stream.report,
            confusion,
            decisions: stream.decisions,
        });
    }
    Ok((result, observed))
}

/// What one lane's follower accumulated by the time its subscription
/// ended.
struct Followed {
    evidence: LaneEvidence,
    payload: Vec<u8>,
    stats: SubscriptionStats,
}

/// Drains one subscription to its end, accumulating every delivered
/// window in order.
fn follow(subscription: Subscription) -> Result<Followed, String> {
    let mut evidence = LaneEvidence::default();
    let mut payload = Vec::new();
    loop {
        match subscription
            .recv(FOLLOW_QUANTUM)
            .map_err(|error| error.to_string())?
        {
            SubscriptionStep::Window(window) => {
                evidence.ids.push(window.entry.window_id);
                evidence.events += u64::from(window.entry.events);
                payload.extend_from_slice(&window.payload);
            }
            SubscriptionStep::TimedOut => continue,
            SubscriptionStep::Ended => {
                evidence.payload_bytes = payload.len() as u64;
                return Ok(Followed {
                    evidence,
                    payload,
                    stats: subscription.stats(),
                });
            }
        }
    }
}

impl MultiStreamExperiment {
    /// Runs the fleet with every stream recording through its own store
    /// lane, on the fleet engine's worker for that stream, closes the
    /// store, optionally compacts it, reopens it cold and recomputes the
    /// per-stream metrics from disk.
    ///
    /// `store` configures every lane; `maintenance` is where a run is
    /// compressed ([`MaintenancePolicy::with_recompress`]). A merge or
    /// recompression pass keeps the agreement checks exact; a retention
    /// horizon drops old windows by design, so the on-disk set is
    /// verified as a subset of the recorded set and the recomputed
    /// confusion is reported rather than compared.
    ///
    /// # Errors
    ///
    /// Propagates simulation, reduction and storage errors, and returns
    /// [`EvalError::InvalidExperiment`] when `dir` already holds a
    /// recorded run or when the reopened store disagrees with the live
    /// recorder accounting (windows, events, payload bytes, window ids,
    /// or the recomputed confusion matrices).
    pub fn run_durable(
        &self,
        dir: impl AsRef<Path>,
        store: StoreConfig,
        maintenance: Option<MaintenancePolicy>,
    ) -> Result<FleetDurableResult, EvalError> {
        let dir = dir.as_ref();
        refuse_used_dir(dir)?;
        let writers = StoreWriter::open(dir)?;
        let (aggregate, recorded) = self.record_into_lanes(|lane| writers.lane(lane, store))?;
        let compaction = maintenance
            .map(|policy| Compactor::new(dir, policy).compact())
            .transpose()?;
        let retention = maintenance.is_some_and(|policy| policy.retention_ns.is_some());

        // Cold reopen: everything below this line trusts only the disk.
        let reader = StoreReader::open(dir)?;
        let mut evidence = Vec::with_capacity(recorded.len());
        for (lane, stream) in recorded.iter().enumerate() {
            // A lane whose index fails to load must surface as a storage
            // error, not as "zero windows on disk".
            let entries = if stream.report.recorder.windows_recorded == 0 {
                reader.lane_windows(lane as u32).unwrap_or(&[])
            } else {
                reader.lane_windows(lane as u32)?
            };
            let mut lane_evidence = LaneEvidence::default();
            lane_evidence.absorb(entries);
            evidence.push(lane_evidence);
        }
        let (result, observed) = score(self.streams(), aggregate, recorded, &evidence, retention)?;
        Ok(FleetDurableResult {
            result,
            observed,
            recovery: reader.recovery().clone(),
            compaction,
            stored_bytes: reader.total_stored_bytes(),
        })
    }

    /// Runs the fleet with every stream recording through a serving
    /// handle's store lane (on the stream's fleet worker) while one
    /// tail subscription per lane follows the commit stream live, then
    /// verifies the followed streams byte-for-byte against a cold
    /// [`Snapshot`] and recomputes the per-stream metrics from what the
    /// followers received. `store` configures every lane.
    ///
    /// # Errors
    ///
    /// Propagates simulation, reduction and storage errors, and returns
    /// [`EvalError::InvalidExperiment`] when `dir` already holds a
    /// recorded run, when a follower dropped a window, or when a
    /// follower's stream disagrees with the cold snapshot (window order,
    /// payload bytes) or the live recorder accounting (windows, events,
    /// payload bytes, window ids, or the recomputed confusion matrices).
    pub fn run_live(
        &self,
        dir: impl AsRef<Path>,
        store: StoreConfig,
    ) -> Result<FleetLiveResult, EvalError> {
        let dir = dir.as_ref();
        refuse_used_dir(dir)?;

        // Subscribe every lane *before* its writer exists: followers must
        // receive the lane from its first committed window.
        let serve = ServeHandle::open(dir)?;
        let followers: Vec<_> = (0..self.stream_count())
            .map(|lane| {
                let subscription = serve.subscribe_with(
                    lane as u32,
                    SubscribeOptions {
                        // Scoring needs every window; nothing is held
                        // in memory for it.
                        buffer: usize::MAX,
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
        let (aggregate, recorded) =
            self.record_into_lanes(|lane| serve.create_writer(lane, store))?;

        // Cold verification: a fresh snapshot trusts only the disk; every
        // follower must have received exactly the committed lane, once,
        // in commit order, byte-for-byte.
        let snapshot = Snapshot::open(dir)?;
        let mut evidence = Vec::with_capacity(followers.len());
        let mut follower_stats = Vec::with_capacity(followers.len());
        for (lane, handle) in followers.into_iter().enumerate() {
            let followed = handle
                .join()
                .unwrap_or_else(|_| Err("it panicked".into()))
                .map_err(|error| {
                    EvalError::InvalidExperiment(format!("lane {lane}: follower failed: {error}"))
                })?;
            if followed.stats.dropped > 0 {
                return Err(EvalError::InvalidExperiment(format!(
                    "lane {lane}: follower dropped {} windows while draining; an \
                     exactly-once live score needs a buffer the consumer keeps up with",
                    followed.stats.dropped,
                )));
            }
            let disk_ids: Vec<u64> = snapshot
                .lane_windows(lane as u32)
                .map(|entries| entries.iter().map(|w| w.window_id).collect())
                .unwrap_or_default();
            if followed.evidence.ids != disk_ids {
                return Err(EvalError::InvalidExperiment(format!(
                    "lane {lane}: follower received windows {:?} but the cold snapshot \
                     holds {:?}",
                    followed.evidence.ids, disk_ids,
                )));
            }
            if !disk_ids.is_empty() {
                let disk_payload = snapshot.lane_payload_bytes(lane as u32)?;
                if followed.payload != disk_payload {
                    return Err(EvalError::InvalidExperiment(format!(
                        "lane {lane}: followed payload differs from the cold snapshot's \
                         ({} bytes followed vs {} on disk)",
                        followed.payload.len(),
                        disk_payload.len(),
                    )));
                }
            }
            evidence.push(followed.evidence);
            follower_stats.push(followed.stats);
        }
        let (result, observed) = score(self.streams(), aggregate, recorded, &evidence, false)?;
        Ok(FleetLiveResult {
            result,
            observed,
            follower_stats,
        })
    }

    /// The recording half shared by the durable and live runs: opens one
    /// lane per stream with `create`, reduces the fleet into them — each
    /// writer appends on the worker that runs its stream's session —
    /// then closes each lane (writing its sidecar and publishing its
    /// final watermark). Returns the aggregate report and every stream's
    /// share (its sink closed and gone), in stream order.
    fn record_into_lanes(
        &self,
        create: impl FnMut(u32) -> Result<LaneWriter, TraceError>,
    ) -> Result<(ReductionReport, Vec<ReducedStream<()>>), EvalError> {
        let lanes = (0..self.stream_count() as u32)
            .map(create)
            .collect::<Result<Vec<_>, _>>()?;
        let (aggregate, reduced) = self.reduce_into(lanes)?;
        let mut closed = Vec::with_capacity(reduced.len());
        for stream in reduced {
            stream.sink.close()?;
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
    use crate::ChurnExperiment;
    use endurance_store::CodecId;
    use mm_sim::{PerturbationSchedule, Scenario};
    use std::collections::BTreeMap;
    use std::path::PathBuf;
    use trace_model::{EventSink, EventTypeId, Timestamp, TraceEvent, WindowId};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("endurance-eval-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A compact perturbed fleet (60 s per device, perturbed over
    /// [25 s, 30 s) and [45 s, 50 s)) so the recorded round-trips stay
    /// fast; the scaled paper fleet is covered by the integration tests.
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
                let scenario = Scenario::builder(&format!("recorded-{device}"))
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

    /// The windows a hand-built lane recorded: 26..=29 report errors
    /// inside the first perturbation (true positives), 33 does not (a
    /// false positive).
    const RECORDED: [u64; 5] = [26, 27, 28, 29, 33];

    /// Evidence holding windows `ids` at the hand-built lane's 10 events
    /// and 100 payload bytes per window.
    fn evidence(ids: &[u64]) -> LaneEvidence {
        LaneEvidence {
            ids: ids.to_vec(),
            events: 10 * ids.len() as u64,
            payload_bytes: 100 * ids.len() as u64,
        }
    }

    /// Scores a hand-built one-lane run — twenty 1 s windows, 20..40,
    /// over `small_fleet`'s schedule, of which [`RECORDED`] were recorded
    /// — against `evidence`.
    fn rescore(evidence: LaneEvidence, retention: bool) -> Result<Observed, EvalError> {
        let decisions: Vec<WindowDecision> = (20..40u64)
            .map(|second| WindowDecision {
                window_id: WindowId::new(second),
                start: Timestamp::from_secs(second),
                end: Timestamp::from_secs(second + 1),
                events: 10,
                has_error_event: (26..30).contains(&second),
                divergence: None,
                lof: None,
                verdict: if RECORDED.contains(&second) {
                    WindowVerdict::Anomalous
                } else {
                    WindowVerdict::CheckedNormal
                },
            })
            .collect();
        let report = ReductionReport {
            monitored_windows: 20,
            reference_windows: 0,
            lof_evaluations: 20,
            anomalous_windows: 5,
            alpha: 1.2,
            recorder: RecorderStats {
                windows_seen: 20,
                windows_recorded: 5,
                events_recorded: 50,
                recorded_encoded_bytes: 500,
                ..RecorderStats::default()
            },
        };
        let recorded = vec![ReducedStream {
            report,
            decisions,
            sink: (),
        }];
        let fleet = small_fleet(1);
        let (result, observed) = score(fleet.streams(), report, recorded, &[evidence], retention)?;
        assert_eq!(result.confusion, HONEST, "the live matrix ignores evidence");
        Ok(observed)
    }

    /// The hand-built lane's live confusion matrix.
    const HONEST: ConfusionMatrix = ConfusionMatrix {
        true_positives: 4,
        false_positives: 1,
        false_negatives: 0,
        true_negatives: 15,
    };

    fn assert_refused(outcome: Result<Observed, EvalError>, needle: &str) {
        assert!(
            matches!(outcome, Err(EvalError::InvalidExperiment(ref msg)) if msg.contains(needle)),
            "expected a refusal containing {needle:?}, got {outcome:?}"
        );
    }

    #[test]
    fn scorer_reports_exact_evidence_and_refuses_every_gap() {
        let observed = rescore(evidence(&RECORDED), false).unwrap();
        assert_eq!(
            observed,
            Observed {
                windows: 5,
                events: 50,
                payload_bytes: 500,
                confusion: vec![HONEST],
                fleet_confusion: HONEST,
            }
        );

        // A window the observer lost, one it should not hold, one held
        // twice, and a swapped one.
        assert_refused(rescore(evidence(&[26, 27, 28, 33]), false), "lane 0");
        assert_refused(
            rescore(evidence(&[26, 27, 28, 29, 33, 35]), false),
            "lane 0",
        );
        assert_refused(
            rescore(evidence(&[26, 26, 27, 28, 29]), false),
            "lane 0: the observed windows are not the recorded ones",
        );
        assert_refused(
            rescore(evidence(&[26, 27, 28, 29, 34]), false),
            "1 never recorded, 1 recorded but not observed",
        );

        // The right windows with the wrong volume.
        let short_events = LaneEvidence {
            events: 49,
            ..evidence(&RECORDED)
        };
        assert_refused(rescore(short_events, false), "lane 0 disagrees");
        let long_payload = LaneEvidence {
            payload_bytes: 501,
            ..evidence(&RECORDED)
        };
        assert_refused(rescore(long_payload, false), "lane 0 disagrees");
    }

    #[test]
    fn retention_accepts_a_subset_and_reports_the_matrix_it_leaves() {
        // Window 29 aged out (or was tampered away): accepted under a
        // retention horizon, and exactly one true positive becomes a
        // false negative in the recomputed matrix.
        let aged = [26, 27, 28, 33];
        let observed = rescore(evidence(&aged), true).unwrap();
        let expected = ConfusionMatrix {
            true_positives: HONEST.true_positives - 1,
            false_negatives: HONEST.false_negatives + 1,
            ..HONEST
        };
        assert_eq!(observed.windows, 4);
        assert_eq!(observed.confusion, vec![expected]);
        assert_eq!(observed.fleet_confusion, expected);
        assert_refused(rescore(evidence(&aged), false), "lane 0 disagrees");

        // Retention only ever removes: a stray window is still refused.
        assert_refused(
            rescore(evidence(&[26, 27, 28, 29, 33, 35]), true),
            "1 never recorded",
        );
    }

    #[test]
    fn live_followed_fleet_matches_the_in_memory_and_durable_runs() {
        let dir = temp_dir("live");
        let fleet = small_fleet(3);
        let live = fleet.run().unwrap();
        let followed = fleet.run_live(&dir, StoreConfig::default()).unwrap();
        let durable = fleet
            .run_durable(dir.join("durable"), StoreConfig::default(), None)
            .unwrap();

        // Same deterministic simulations: identical per-stream results.
        for recorded in [&followed.result, &durable.result] {
            assert_eq!(recorded.streams.len(), live.streams.len());
            for (recorded_stream, live_stream) in recorded.streams.iter().zip(&live.streams) {
                assert_eq!(recorded_stream.report, live_stream.report);
                assert_eq!(recorded_stream.decisions, live_stream.decisions);
                assert_eq!(recorded_stream.confusion, live_stream.confusion);
            }
            assert_eq!(recorded.confusion, live.confusion);
        }

        // The followed streams reproduce the fleet confusion exactly and
        // every follower ended cleanly without drops.
        assert_eq!(followed.observed.confusion.len(), 3);
        for (recomputed, live_stream) in followed.observed.confusion.iter().zip(&live.streams) {
            assert_eq!(recomputed, &live_stream.confusion);
        }
        assert_eq!(followed.observed.fleet_confusion, live.confusion);
        assert!(
            followed.observed.windows > 0,
            "the perturbed fleet records anomalous windows"
        );
        for stats in &followed.follower_stats {
            assert_eq!(stats.dropped, 0);
            assert!(stats.ended);
        }

        // The live and cold observers agree with each other too.
        assert_eq!(followed.observed, durable.observed);
        assert!(durable.recovery.clean);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn used_directory_is_refused_before_any_writer_touches_it() {
        // An older run's leftovers: lane 0 with a torn tail (which a
        // writer's recovery would truncate) and a lane beyond this
        // fleet's (which a per-lane check would never look at).
        let dir = temp_dir("used");
        let event = TraceEvent::new(Timestamp::from_micros(5), EventTypeId::new(1), 7);
        for lane in [0, 7] {
            let mut writer = LaneWriter::create(&dir, lane, StoreConfig::default()).unwrap();
            writer.record(&[event]).unwrap();
            writer.close().unwrap();
        }
        let files = || -> BTreeMap<PathBuf, Vec<u8>> {
            std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .map(|path| (path.clone(), std::fs::read(path).unwrap()))
                .collect()
        };
        let (segment, mut bytes) = files()
            .into_iter()
            .find(|(path, _)| path.to_string_lossy().ends_with("lane0000-000000.seg"))
            .expect("lane 0 wrote its first segment");
        bytes.extend_from_slice(&[0x55; 11]);
        std::fs::write(segment, bytes).unwrap();
        let before = files();

        let fleet = small_fleet(1);
        let churn = ChurnExperiment::churn_demo(10, 7).unwrap();
        let refusals = [
            fleet
                .run_durable(&dir, StoreConfig::default(), None)
                .map(|_| ()),
            fleet.run_live(&dir, StoreConfig::default()).map(|_| ()),
            churn
                .run_durable(&dir, StoreConfig::default(), 2)
                .map(|_| ()),
        ];
        for refused in refusals {
            assert!(
                matches!(refused, Err(EvalError::InvalidExperiment(ref msg))
                    if msg.contains("already holds a recorded run")),
                "{refused:?}"
            );
        }
        assert_eq!(files(), before, "a refusal leaves every byte in place");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_stream_fleet_is_the_standalone_experiment_under_every_codec() {
        let base = temp_dir("codecs");
        let fleet = small_fleet(1);
        let standalone = fleet.streams()[0].run().unwrap();
        let recorder = standalone.report.recorder;
        assert!(recorder.windows_recorded > 0);

        let mut stored = Vec::new();
        for codec in CodecId::ALL {
            // Compressed after the close, by the run's maintenance pass.
            let maintenance = (codec != CodecId::Identity)
                .then(|| MaintenancePolicy::disabled().with_recompress(codec));
            let durable = fleet
                .run_durable(base.join(codec.name()), StoreConfig::default(), maintenance)
                .unwrap();
            // A single device is a one-stream fleet: same report, same
            // decisions, and a cleanly closed store recounting exactly
            // the recorded volume — identical payloads under every codec.
            assert_eq!(durable.result.streams[0].report, standalone.report);
            assert_eq!(durable.result.streams[0].decisions, standalone.decisions);
            assert_eq!(durable.result.confusion, standalone.confusion);
            assert!(durable.recovery.clean);
            assert_eq!(durable.observed.windows, recorder.windows_recorded);
            assert_eq!(durable.observed.events, recorder.events_recorded);
            assert_eq!(
                durable.observed.payload_bytes, recorder.recorded_encoded_bytes,
                "{codec}"
            );
            stored.push((codec, durable.stored_bytes, durable.compression_ratio()));
        }
        let (identity, smallest) = (stored[0].1, stored[1].1);
        assert_eq!(stored[0].2, Some(1.0));
        // Any other target stores each window as its smallest block.
        for (codec, bytes, ratio) in &stored[1..] {
            assert_eq!(*bytes, smallest, "{codec}");
            assert!(
                *bytes < identity && ratio.unwrap() > 1.0,
                "{codec}: {bytes} vs identity {identity}"
            );
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn fleet_durable_with_compaction_still_agrees_byte_for_byte() {
        let dir = temp_dir("compact");
        let fleet = small_fleet(2);
        // Tiny segments force rotation; the pass consolidates them,
        // compresses every lane, and must not change a single replayed
        // byte.
        let policy = MaintenancePolicy::merge_below(u64::MAX).with_recompress(CodecId::DeltaVarint);
        let durable = fleet
            .run_durable(
                &dir,
                StoreConfig::default().with_segment_max_windows(2),
                Some(policy),
            )
            .unwrap();
        let compaction = durable.compaction.as_ref().unwrap();
        assert!(compaction.merged_runs() > 0, "{compaction}");
        assert!(compaction.recompressed_windows() > 0, "{compaction}");
        assert_eq!(compaction.windows_dropped(), 0);
        assert!(
            durable.stored_bytes < durable.observed.payload_bytes,
            "{} stored vs {} payload",
            durable.stored_bytes,
            durable.observed.payload_bytes
        );

        let live = fleet.run().unwrap();
        assert_eq!(durable.observed.fleet_confusion, live.confusion);
        assert_eq!(
            durable.observed.payload_bytes,
            live.aggregate.recorder.recorded_encoded_bytes
        );

        std::fs::remove_dir_all(&dir).ok();
    }
}
