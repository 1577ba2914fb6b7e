//! Baseline recording strategies to compare against the LOF monitor.
//!
//! * **Record everything** — what endurance tests do today when they trace
//!   at all: perfect recall, no reduction.
//! * **Uniform sampling** — record every N-th window regardless of content.
//! * **Event-rate threshold** — flag windows whose total event count
//!   deviates from the reference mean.
//! * **Per-type z-score** — flag windows whose pmf deviates from the
//!   reference mean in any dimension.

use serde::{Deserialize, Serialize};

use lof_anomaly::{l1_normalize, RateThresholdDetector, ZScoreDetector};
use mm_sim::{Scenario, Simulation};
use trace_model::{Timestamp, TraceEvent, Window, WindowAssembler};

use crate::{ConfusionMatrix, DelayCalibration, EvalError, GroundTruth, WindowLabel};

/// A baseline recording strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BaselineKind {
    /// Record every window (the status quo the paper argues against).
    RecordAll,
    /// Record every window whose index is a multiple of `1 / fraction`.
    UniformSampling {
        /// Fraction of windows to record, in `(0, 1]`.
        fraction: f64,
    },
    /// Record windows whose total event count deviates from the reference
    /// mean by more than the relative margin.
    RateThreshold {
        /// Tolerated relative deviation (e.g. 0.3 = ±30 %).
        relative_margin: f64,
    },
    /// Record windows whose pmf deviates from the reference mean by more
    /// than `threshold` standard deviations in any dimension.
    ZScore {
        /// Maximum tolerated absolute z-score.
        threshold: f64,
    },
}

impl BaselineKind {
    /// Human-readable name used in report tables.
    pub fn name(&self) -> String {
        match self {
            BaselineKind::RecordAll => "record-all".to_owned(),
            BaselineKind::UniformSampling { fraction } => {
                format!("uniform-sampling({fraction:.2})")
            }
            BaselineKind::RateThreshold { relative_margin } => {
                format!("rate-threshold({relative_margin:.2})")
            }
            BaselineKind::ZScore { threshold } => format!("z-score({threshold:.1})"),
        }
    }
}

/// Detection quality and volume of one baseline on one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineResult {
    /// Baseline name (see [`BaselineKind::name`]).
    pub name: String,
    /// Detection quality against the same ground truth as the LOF monitor.
    pub confusion: ConfusionMatrix,
    /// Number of monitored windows recorded by the baseline.
    pub recorded_windows: u64,
    /// Raw bytes recorded.
    pub recorded_bytes: u64,
    /// Raw bytes of the whole monitored stream.
    pub total_bytes: u64,
    /// Volume reduction factor.
    pub reduction_factor: f64,
}

impl BaselineResult {
    /// Precision of the baseline.
    pub fn precision(&self) -> f64 {
        self.confusion.precision()
    }

    /// Recall of the baseline.
    pub fn recall(&self) -> f64 {
        self.confusion.recall()
    }
}

/// Runs the given baselines on a scenario and evaluates them against the
/// same ground-truth rule as the LOF monitor.
///
/// # Errors
///
/// Propagates simulation, windowing and detector-fitting errors, and
/// returns [`EvalError::InvalidExperiment`] for out-of-range baseline
/// parameters.
pub fn run_baselines(
    scenario: &Scenario,
    kinds: &[BaselineKind],
) -> Result<Vec<BaselineResult>, EvalError> {
    for kind in kinds {
        validate(kind)?;
    }
    let registry = scenario.registry()?;
    let events: Vec<TraceEvent> = Simulation::new(scenario, &registry)?.collect();
    let delays = DelayCalibration::from_events(&scenario.perturbations, &events)
        .unwrap_or_else(DelayCalibration::zero);
    let truth = GroundTruth::from_schedule(&scenario.perturbations, delays);

    let windows = WindowAssembler::for_time(scenario.frame_period)?.windows(events);
    let dimensions = registry.len();
    let reference_end = Timestamp::from(scenario.reference_duration);

    // Single streaming pass, in the spirit of the push-based session API:
    // reference windows accumulate fitting material, then every baseline
    // folds the monitored windows incrementally — no `Vec<Window>` of the
    // whole monitored segment is ever materialised.
    let mut reference_counts: Vec<f64> = Vec::new();
    let mut reference_pmfs: Vec<Vec<f64>> = Vec::new();
    let mut predictors: Option<Vec<Predictor>> = None;
    let mut accumulators: Vec<BaselineAccumulator> = kinds
        .iter()
        .map(|_| BaselineAccumulator::default())
        .collect();
    let mut total_bytes = 0u64;
    let mut monitored_index = 0usize;

    for window in windows {
        if window.end <= reference_end {
            reference_counts.push(window.len() as f64);
            let counts: Vec<f64> = window
                .type_counts(dimensions)
                .into_iter()
                .map(|c| c as f64)
                .collect();
            reference_pmfs.push(l1_normalize(&counts));
            continue;
        }
        // First monitored window: fit every baseline from the reference
        // material collected so far.
        let predictors = match &mut predictors {
            Some(fitted) => fitted,
            None => {
                if reference_counts.is_empty() {
                    return Err(EvalError::InvalidExperiment(
                        "scenario too short: reference segment is empty".into(),
                    ));
                }
                predictors.insert(
                    kinds
                        .iter()
                        .map(|kind| {
                            Predictor::fit(kind, &reference_counts, &reference_pmfs, dimensions)
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                )
            }
        };

        let raw_bytes = window.raw_size_bytes() as u64;
        total_bytes += raw_bytes;
        let truth_positive = window.has_error() && truth.contains(window.midpoint());
        for (predictor, accumulator) in predictors.iter().zip(accumulators.iter_mut()) {
            let predicted = predictor.predict(monitored_index, &window);
            accumulator
                .confusion
                .observe(WindowLabel::from_flags(truth_positive, predicted));
            if predicted {
                accumulator.recorded_windows += 1;
                accumulator.recorded_bytes += raw_bytes;
            }
        }
        monitored_index += 1;
    }

    if monitored_index == 0 {
        return Err(EvalError::InvalidExperiment(
            "scenario too short: reference or monitored segment is empty".into(),
        ));
    }

    Ok(kinds
        .iter()
        .zip(accumulators)
        .map(|(kind, accumulator)| {
            let reduction_factor = if accumulator.recorded_bytes == 0 {
                f64::INFINITY
            } else {
                total_bytes as f64 / accumulator.recorded_bytes as f64
            };
            BaselineResult {
                name: kind.name(),
                confusion: accumulator.confusion,
                recorded_windows: accumulator.recorded_windows,
                recorded_bytes: accumulator.recorded_bytes,
                total_bytes,
                reduction_factor,
            }
        })
        .collect())
}

/// Per-baseline running totals for the streaming evaluation pass.
#[derive(Debug, Default)]
struct BaselineAccumulator {
    confusion: ConfusionMatrix,
    recorded_windows: u64,
    recorded_bytes: u64,
}

fn validate(kind: &BaselineKind) -> Result<(), EvalError> {
    match kind {
        BaselineKind::UniformSampling { fraction } if !(*fraction > 0.0 && *fraction <= 1.0) => {
            Err(EvalError::InvalidExperiment(
                "uniform-sampling fraction must be within (0, 1]".into(),
            ))
        }
        BaselineKind::RateThreshold { relative_margin } if *relative_margin <= 0.0 => Err(
            EvalError::InvalidExperiment("rate-threshold margin must be positive".into()),
        ),
        BaselineKind::ZScore { threshold } if *threshold <= 0.0 => Err(
            EvalError::InvalidExperiment("z-score threshold must be positive".into()),
        ),
        _ => Ok(()),
    }
}

/// A fitted baseline predictor.
#[derive(Debug)]
enum Predictor {
    RecordAll,
    UniformSampling {
        stride: usize,
    },
    Rate(RateThresholdDetector),
    ZScore {
        detector: ZScoreDetector,
        threshold: f64,
        dimensions: usize,
    },
}

impl Predictor {
    fn fit(
        kind: &BaselineKind,
        reference_counts: &[f64],
        reference_pmfs: &[Vec<f64>],
        dimensions: usize,
    ) -> Result<Self, EvalError> {
        Ok(match kind {
            BaselineKind::RecordAll => Predictor::RecordAll,
            BaselineKind::UniformSampling { fraction } => Predictor::UniformSampling {
                stride: (1.0 / fraction).round().max(1.0) as usize,
            },
            BaselineKind::RateThreshold { relative_margin } => Predictor::Rate(
                RateThresholdDetector::fit(reference_counts, *relative_margin)
                    .map_err(endurance_core::CoreError::from)?,
            ),
            BaselineKind::ZScore { threshold } => Predictor::ZScore {
                detector: ZScoreDetector::fit(reference_pmfs)
                    .map_err(endurance_core::CoreError::from)?,
                threshold: *threshold,
                dimensions,
            },
        })
    }

    fn predict(&self, index: usize, window: &Window) -> bool {
        match self {
            Predictor::RecordAll => true,
            Predictor::UniformSampling { stride } => index % *stride == 0,
            Predictor::Rate(detector) => detector.is_anomalous(window.len() as f64),
            Predictor::ZScore {
                detector,
                threshold,
                dimensions,
            } => {
                let counts: Vec<f64> = window
                    .type_counts(*dimensions)
                    .into_iter()
                    .map(|c| c as f64)
                    .collect();
                let pmf = l1_normalize(&counts);
                detector.score(&pmf).map(|z| z > *threshold).unwrap_or(true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn short_endurance() -> Scenario {
        // 520 s: 300 s reference + one perturbation window of the periodic
        // schedule (at 300 s for 20 s) plus slack.
        Scenario::scaled_endurance(Duration::from_secs(520), 9).unwrap()
    }

    #[test]
    fn baseline_parameters_are_validated() {
        assert!(validate(&BaselineKind::UniformSampling { fraction: 0.0 }).is_err());
        assert!(validate(&BaselineKind::UniformSampling { fraction: 1.5 }).is_err());
        assert!(validate(&BaselineKind::RateThreshold {
            relative_margin: 0.0
        })
        .is_err());
        assert!(validate(&BaselineKind::ZScore { threshold: -1.0 }).is_err());
        assert!(validate(&BaselineKind::RecordAll).is_ok());
    }

    #[test]
    fn names_are_distinct_and_descriptive() {
        let kinds = [
            BaselineKind::RecordAll,
            BaselineKind::UniformSampling { fraction: 0.1 },
            BaselineKind::RateThreshold {
                relative_margin: 0.3,
            },
            BaselineKind::ZScore { threshold: 4.0 },
        ];
        let names: Vec<String> = kinds.iter().map(BaselineKind::name).collect();
        let mut unique = names.clone();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(names[1].contains("0.10"));
    }

    #[test]
    fn record_all_has_full_recall_and_no_reduction() {
        let results = run_baselines(&short_endurance(), &[BaselineKind::RecordAll]).unwrap();
        let record_all = &results[0];
        assert_eq!(record_all.recall(), 1.0);
        assert!((record_all.reduction_factor - 1.0).abs() < 1e-9);
        assert_eq!(record_all.recorded_bytes, record_all.total_bytes);
        // Precision equals the base rate of anomalous windows, which is low.
        assert!(record_all.precision() < 0.5);
    }

    #[test]
    fn uniform_sampling_reduces_volume_proportionally() {
        let results = run_baselines(
            &short_endurance(),
            &[BaselineKind::UniformSampling { fraction: 0.1 }],
        )
        .unwrap();
        let sampled = &results[0];
        assert!(sampled.reduction_factor > 5.0 && sampled.reduction_factor < 20.0);
        // Blind sampling misses most anomalous windows.
        assert!(sampled.recall() < 0.5);
    }

    #[test]
    fn content_aware_baselines_detect_the_perturbation() {
        let results = run_baselines(
            &short_endurance(),
            &[
                BaselineKind::RateThreshold {
                    relative_margin: 0.3,
                },
                BaselineKind::ZScore { threshold: 6.0 },
            ],
        )
        .unwrap();
        let rate = &results[0];
        let zscore = &results[1];
        // The pmf-based detector sees the mix shift; the pure event-rate
        // detector largely misses it because the total event count barely
        // changes when decoding stalls (this is exactly the paper's
        // motivation for using pmfs).
        assert!(
            zscore.recall() > 0.3,
            "z-score should catch a good share of anomalous windows (recall {})",
            zscore.recall()
        );
        assert!(zscore.recall() > rate.recall());
        for result in &results {
            assert!(
                result.reduction_factor >= 1.0,
                "{} must not record more than everything",
                result.name
            );
            assert!(result.precision() >= 0.0 && result.precision() <= 1.0);
        }
    }
}
