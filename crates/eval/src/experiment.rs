//! The experiment runner: simulate a workload, monitor its trace, label the
//! outcome against the ground truth.

use std::time::Duration;

use endurance_core::{
    MonitorConfig, ReductionReport, ReductionSession, ReferenceModel, WindowDecision,
};
use mm_sim::{PerturbationSchedule, Scenario, Simulation};

use crate::{
    label_decisions, ConfusionMatrix, DelayCalibration, EvalError, GroundTruth, LabeledDecision,
};

/// Decisions evaluated against a perturbation schedule: the one labelling
/// pipeline shared by the single- and multi-stream experiment runners.
#[derive(Debug)]
pub(crate) struct EvaluatedDecisions {
    pub delays: Option<DelayCalibration>,
    pub truth: GroundTruth,
    pub labeled: Vec<LabeledDecision>,
    pub confusion: ConfusionMatrix,
}

/// Calibrates delays, derives the ground truth and labels the decisions.
pub(crate) fn evaluate_decisions(
    perturbations: &PerturbationSchedule,
    decisions: &[WindowDecision],
) -> EvaluatedDecisions {
    let delays = DelayCalibration::from_decisions(perturbations, decisions);
    let truth =
        GroundTruth::from_schedule(perturbations, delays.unwrap_or_else(DelayCalibration::zero));
    let labeled = label_decisions(decisions, &truth);
    let confusion = ConfusionMatrix::from_labels(&labeled);
    EvaluatedDecisions {
        delays,
        truth,
        labeled,
        confusion,
    }
}

/// A complete experiment: a simulated workload plus a monitor configuration.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The simulated endurance workload.
    pub scenario: Scenario,
    /// The monitor configuration under test.
    pub monitor: MonitorConfig,
}

/// Everything measured by one experiment run.
#[derive(Debug)]
pub struct ExperimentResult {
    /// The monitor's reduction report (volume, counters).
    pub report: ReductionReport,
    /// Detection quality against the ground truth.
    pub confusion: ConfusionMatrix,
    /// The calibrated buffering delays (Δs, Δe), when errors occurred.
    pub delays: Option<DelayCalibration>,
    /// The ground-truth intervals used for labelling.
    pub truth: GroundTruth,
    /// Raw monitor decisions, in stream order.
    pub decisions: Vec<WindowDecision>,
    /// Decisions with their TP/FP/FN/TN labels.
    pub labeled: Vec<LabeledDecision>,
    /// The reference model the monitor learned and scored against;
    /// `None` when the trace ended before its learning phase did.
    pub model: Option<ReferenceModel>,
}

impl Experiment {
    /// Builds an experiment, checking that the monitor's pmf dimensionality
    /// matches the scenario's event registry.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::InvalidExperiment`] on a dimensionality
    /// mismatch and propagates scenario/config validation errors.
    pub fn new(scenario: Scenario, monitor: MonitorConfig) -> Result<Self, EvalError> {
        scenario.validate()?;
        monitor.validate()?;
        let registry = scenario.registry()?;
        if monitor.dimensions != registry.len() {
            return Err(EvalError::InvalidExperiment(format!(
                "monitor expects {} event types but the scenario registry has {}",
                monitor.dimensions,
                registry.len()
            )));
        }
        Ok(Experiment { scenario, monitor })
    }

    /// The paper's experiment scaled to `duration` of simulated time, with
    /// the paper's monitor parameters (40 ms windows, K = 20, α = 1.2,
    /// 300 s reference segment).
    ///
    /// # Errors
    ///
    /// Propagates scenario construction errors (the duration must leave
    /// room for the reference segment plus at least one perturbation).
    pub fn scaled(duration: Duration, seed: u64) -> Result<Self, EvalError> {
        let scenario = Scenario::scaled_endurance(duration, seed)?;
        Self::with_paper_monitor(scenario)
    }

    /// The paper's experiment at full scale (6 h 17 m of simulated time).
    ///
    /// # Errors
    ///
    /// Propagates scenario construction errors.
    pub fn paper_full(seed: u64) -> Result<Self, EvalError> {
        let scenario = Scenario::paper_endurance(seed)?;
        Self::with_paper_monitor(scenario)
    }

    /// Wraps a scenario with the paper's monitor configuration, deriving
    /// the pmf dimensionality from the scenario's registry.
    ///
    /// # Errors
    ///
    /// Propagates registry and configuration errors.
    pub fn with_paper_monitor(scenario: Scenario) -> Result<Self, EvalError> {
        let registry = scenario.registry()?;
        let monitor = MonitorConfig::builder()
            .dimensions(registry.len())
            .reference_duration(scenario.reference_duration)
            .build()?;
        Self::new(scenario, monitor)
    }

    /// Returns a copy of this experiment with a different monitor
    /// configuration (used by the parameter-sweep ablations).
    ///
    /// # Errors
    ///
    /// Same validation as [`Experiment::new`].
    pub fn with_monitor(&self, monitor: MonitorConfig) -> Result<Self, EvalError> {
        Self::new(self.scenario.clone(), monitor)
    }

    /// Runs the experiment: simulate, monitor, calibrate delays, label.
    ///
    /// # Errors
    ///
    /// Propagates simulation and monitoring errors.
    pub fn run(&self) -> Result<ExperimentResult, EvalError> {
        let registry = self.scenario.registry()?;
        let mut simulation = Simulation::new(&self.scenario, &registry)?;

        // Stream the simulated trace through a push-based session: events
        // flow from the simulator straight into the monitor without ever
        // materialising the whole trace. The harness keeps the decision
        // list (a `Vec<WindowDecision>` observer) because labelling needs
        // it; production deployments would install a bounded observer.
        let mut session = ReductionSession::new(self.monitor.clone())?.with_observer(Vec::new());
        session.push_source(&mut simulation)?;
        let model = session.model().cloned();
        let outcome = session.finish()?;
        let (report, decisions) = (outcome.report, outcome.observer);

        let evaluated = evaluate_decisions(&self.scenario.perturbations, &decisions);

        Ok(ExperimentResult {
            report,
            confusion: evaluated.confusion,
            delays: evaluated.delays,
            truth: evaluated.truth,
            decisions,
            labeled: evaluated.labeled,
            model,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensionality_mismatch_is_rejected() {
        let scenario = Scenario::scaled_endurance(Duration::from_secs(520), 1).unwrap();
        let monitor = MonitorConfig::builder().dimensions(3).build().unwrap();
        assert!(matches!(
            Experiment::new(scenario, monitor),
            Err(EvalError::InvalidExperiment(_))
        ));
    }

    #[test]
    fn scaled_experiment_uses_paper_parameters() {
        let experiment = Experiment::scaled(Duration::from_secs(520), 2).unwrap();
        assert_eq!(experiment.monitor.k, 20);
        assert!((experiment.monitor.alpha - 1.2).abs() < 1e-12);
        assert_eq!(
            experiment.monitor.reference_duration,
            experiment.scenario.reference_duration
        );
        let registry = experiment.scenario.registry().unwrap();
        assert_eq!(experiment.monitor.dimensions, registry.len());
    }

    #[test]
    fn with_monitor_revalidates() {
        let experiment = Experiment::scaled(Duration::from_secs(520), 3).unwrap();
        let bad = MonitorConfig::builder().dimensions(2).build().unwrap();
        assert!(experiment.with_monitor(bad).is_err());
        let registry = experiment.scenario.registry().unwrap();
        let good = MonitorConfig::builder()
            .dimensions(registry.len())
            .k(10)
            .reference_duration(experiment.scenario.reference_duration)
            .build()
            .unwrap();
        let variant = experiment.with_monitor(good).unwrap();
        assert_eq!(variant.monitor.k, 10);
    }

    // A full (scaled) experiment run is exercised by the integration tests
    // in `tests/`, which use a shorter scenario to keep the suite fast.
}
