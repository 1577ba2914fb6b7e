//! # endurance-eval
//!
//! Evaluation harness for the trace-reduction monitor: ground-truth
//! labelling against the perturbation schedule, precision/recall metrics,
//! threshold and parameter sweeps, baseline detectors, and the experiment
//! runner used by the benchmark binaries to regenerate the paper's figure
//! and tables.
//!
//! The labelling follows Section III of the paper: a monitored window is a
//! ground-truth positive when it falls inside
//! `[perturbation_start + Δs, perturbation_end + Δe]` *and* the application
//! reported an error in it; the monitor's prediction is positive when the
//! window's LOF score reaches the threshold `α`.
//!
//! ## Quick example
//!
//! ```rust,no_run
//! use endurance_eval::{Experiment, default_alpha_grid};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), endurance_eval::EvalError> {
//! let experiment = Experiment::scaled(Duration::from_secs(720), 42)?;
//! let result = experiment.run()?;
//! println!("precision = {:.3}", result.confusion.precision());
//! println!("recall    = {:.3}", result.confusion.recall());
//! println!("reduction = {:.1}x", result.report.reduction_factor());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod baselines;
mod churn;
mod error;
mod experiment;
mod ground_truth;
mod labeling;
mod metrics;
mod multistream;
mod recorded;
mod report;
mod repro;
mod size;
mod sweep;

pub use baselines::{run_baselines, BaselineKind, BaselineResult};
pub use churn::{ChurnExperiment, ChurnResult, ChurnStreamScore};
pub use error::EvalError;
pub use experiment::{Experiment, ExperimentResult};
pub use ground_truth::{DelayCalibration, GroundTruth};
pub use labeling::{label_decisions, LabeledDecision, WindowLabel};
pub use metrics::ConfusionMatrix;
pub use multistream::{MultiStreamExperiment, MultiStreamResult, StreamResult};
pub use recorded::{FleetDurableResult, FleetLiveResult, Observed};
pub use report::{baseline_table, headline_table, sweep_table};
pub use repro::ChurnDurableResult;
pub use size::format_bytes;
pub use sweep::{alpha_sweep_from_decisions, default_alpha_grid, SweepPoint};
