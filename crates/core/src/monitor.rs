//! The online monitor: drift gate + LOF scoring per window.

use serde::{Deserialize, Serialize};

use trace_model::{Timestamp, Window, WindowId};

use crate::{CoreError, DriftGate, MonitorConfig, ReferenceModel, WindowPmf};

/// What the monitor concluded about one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowVerdict {
    /// The window resembled the recent past; it was merged into the running
    /// aggregate and not scored with LOF.
    SimilarMerged,
    /// The window was scored with LOF and found regular (`LOF < α`).
    CheckedNormal,
    /// The window was scored with LOF and flagged anomalous (`LOF ≥ α`);
    /// it should be recorded.
    Anomalous,
}

impl WindowVerdict {
    /// Whether the window should be recorded to storage.
    pub fn should_record(&self) -> bool {
        matches!(self, WindowVerdict::Anomalous)
    }
}

/// The monitor's full decision for one window, kept for evaluation and
/// post-mortem inspection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowDecision {
    /// Which window this decision is about.
    pub window_id: WindowId,
    /// Window start time.
    pub start: Timestamp,
    /// Window end time.
    pub end: Timestamp,
    /// Number of events in the window.
    pub events: usize,
    /// Whether the window contained at least one error-severity event
    /// (the evaluation harness needs this for ground-truth labelling).
    pub has_error_event: bool,
    /// Divergence between the window pmf and the running aggregate, when
    /// the gate was consulted.
    pub divergence: Option<f64>,
    /// LOF score, when the LOF test was performed.
    pub lof: Option<f64>,
    /// Final verdict.
    pub verdict: WindowVerdict,
}

impl WindowDecision {
    /// Whether the monitor decided to record this window.
    pub fn recorded(&self) -> bool {
        self.verdict.should_record()
    }
}

/// The online monitoring state machine.
///
/// Feed it windows in stream order with [`OnlineMonitor::observe`]; it
/// returns a [`WindowDecision`] for each. Construction requires an already
/// learned [`ReferenceModel`] — use [`crate::ReductionSession`] for the
/// end-to-end flow that also performs the learning phase.
#[derive(Debug)]
pub struct OnlineMonitor {
    model: ReferenceModel,
    gate: DriftGate,
    config: MonitorConfig,
    lof_evaluations: u64,
    windows_seen: u64,
    anomalies: u64,
}

impl OnlineMonitor {
    /// Creates a monitor from a learned reference model.
    ///
    /// The monitor copies its configuration from the model so the online
    /// phase always matches the learning phase.
    pub fn new(model: ReferenceModel) -> Self {
        let config = model.config().clone();
        let gate = DriftGate::new(
            model.aggregate().clone(),
            config.drift_gate,
            model.calibrated_gate_threshold(),
            config.merge_weight,
        );
        OnlineMonitor {
            model,
            gate,
            config,
            lof_evaluations: 0,
            windows_seen: 0,
            anomalies: 0,
        }
    }

    /// Overrides the anomaly threshold `α` (used by threshold sweeps; the
    /// reference model does not need to be relearned).
    pub fn set_alpha(&mut self, alpha: f64) {
        self.config.alpha = alpha;
    }

    /// The active configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// The underlying reference model.
    pub fn model(&self) -> &ReferenceModel {
        &self.model
    }

    /// Number of windows processed so far.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// Number of LOF evaluations performed so far (windows that passed the
    /// drift gate).
    pub fn lof_evaluations(&self) -> u64 {
        self.lof_evaluations
    }

    /// Number of windows flagged anomalous so far.
    pub fn anomalies(&self) -> u64 {
        self.anomalies
    }

    /// Processes one window and decides whether it should be recorded.
    ///
    /// # Errors
    ///
    /// Propagates LOF scoring errors (dimension mismatches cannot happen
    /// when the window comes from the same registry as the reference).
    pub fn observe(&mut self, window: &Window) -> Result<WindowDecision, CoreError> {
        let pmf = WindowPmf::from_window(window, self.config.dimensions, self.config.smoothing);
        self.observe_pmf(window, &pmf)
    }

    /// Processes one window whose pmf has already been computed.
    ///
    /// # Errors
    ///
    /// Same as [`OnlineMonitor::observe`].
    pub fn observe_pmf(
        &mut self,
        window: &Window,
        pmf: &WindowPmf,
    ) -> Result<WindowDecision, CoreError> {
        self.windows_seen += 1;
        let gate_decision = self.gate.observe(pmf);
        let divergence = match gate_decision {
            crate::DriftDecision::Similar { divergence }
            | crate::DriftDecision::Dissimilar { divergence } => Some(divergence),
            crate::DriftDecision::Bypassed => None,
        };

        let (lof, verdict) = if gate_decision.needs_lof() {
            self.lof_evaluations += 1;
            let score = self.model.score(pmf)?;
            if score >= self.config.alpha {
                self.anomalies += 1;
                (Some(score), WindowVerdict::Anomalous)
            } else {
                (Some(score), WindowVerdict::CheckedNormal)
            }
        } else {
            (None, WindowVerdict::SimilarMerged)
        };

        Ok(WindowDecision {
            window_id: window.id,
            start: window.start,
            end: window.end,
            events: window.len(),
            has_error_event: window.has_error(),
            divergence,
            lof,
            verdict,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DriftGateConfig;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;
    use trace_model::{EventTypeId, Severity, Timestamp, TraceEvent};

    /// Builds a window whose per-type counts are `counts`, 40 ms long.
    fn window(id: u64, counts: &[u64], with_error: bool) -> Window {
        let start = Timestamp::from_millis(id * 40);
        let mut events = Vec::new();
        let mut offset = 0u64;
        for (ty, count) in counts.iter().enumerate() {
            for _ in 0..*count {
                events.push(TraceEvent::new(
                    Timestamp::from_nanos(start.as_nanos() + offset),
                    EventTypeId::new(ty as u16),
                    0,
                ));
                offset += 1_000;
            }
        }
        if with_error {
            events.push(
                TraceEvent::new(
                    Timestamp::from_nanos(start.as_nanos() + offset),
                    EventTypeId::new(0),
                    0,
                )
                .with_severity(Severity::Error),
            );
        }
        events.sort_by_key(|ev| ev.timestamp);
        Window::new(
            WindowId::new(id),
            start,
            Timestamp::from_millis((id + 1) * 40),
            events,
        )
    }

    fn reference_counts(rng: &mut ChaCha8Rng) -> Vec<u64> {
        vec![
            40 + rng.gen_range(0..4),
            30 + rng.gen_range(0..4),
            20 + rng.gen_range(0..3),
            10 + rng.gen_range(0..3),
        ]
    }

    fn learned_monitor(gate: DriftGateConfig) -> OnlineMonitor {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let config = MonitorConfig::builder()
            .dimensions(4)
            .k(10)
            .alpha(1.2)
            .drift_gate(gate)
            .build()
            .unwrap();
        let windows: Vec<Window> = (0..150)
            .map(|i| window(i, &reference_counts(&mut rng), false))
            .collect();
        let model = ReferenceModel::learn_from_windows(&windows, &config).unwrap();
        OnlineMonitor::new(model)
    }

    #[test]
    fn regular_windows_are_gated_and_not_recorded() {
        let mut monitor = learned_monitor(DriftGateConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut recorded = 0;
        for i in 0..200 {
            let w = window(1000 + i, &reference_counts(&mut rng), false);
            let decision = monitor.observe(&w).unwrap();
            if decision.recorded() {
                recorded += 1;
            }
        }
        // A handful of false positives is expected (the reference set in
        // this toy test is small), but the vast majority of regular windows
        // must pass unrecorded.
        assert!(
            recorded <= 12,
            "regular traffic should almost never be recorded ({recorded}/200)"
        );
        // Most windows should have been absorbed by the KL gate, not LOF.
        assert!(monitor.lof_evaluations() < monitor.windows_seen() / 2);
        assert_eq!(monitor.windows_seen(), 200);
    }

    #[test]
    fn shifted_windows_are_flagged_anomalous() {
        let mut monitor = learned_monitor(DriftGateConfig::default());
        // A drastically different mix, as when decoding stalls.
        let anomalous = window(5000, &[5, 2, 1, 60], true);
        let decision = monitor.observe(&anomalous).unwrap();
        assert_eq!(decision.verdict, WindowVerdict::Anomalous);
        assert!(decision.recorded());
        assert!(decision.lof.unwrap() >= 1.2);
        assert!(decision.has_error_event);
        assert_eq!(monitor.anomalies(), 1);
    }

    #[test]
    fn disabled_gate_scores_every_window() {
        let mut monitor = learned_monitor(DriftGateConfig::Disabled);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for i in 0..50 {
            let w = window(2000 + i, &reference_counts(&mut rng), false);
            let decision = monitor.observe(&w).unwrap();
            assert!(decision.lof.is_some());
            assert!(decision.divergence.is_none());
        }
        assert_eq!(monitor.lof_evaluations(), 50);
    }

    #[test]
    fn alpha_override_changes_sensitivity() {
        let mut strict = learned_monitor(DriftGateConfig::Disabled);
        strict.set_alpha(1.05);
        let mut lax = learned_monitor(DriftGateConfig::Disabled);
        lax.set_alpha(10.0);
        let borderline = window(9000, &[48, 25, 22, 14], false);
        let strict_decision = strict.observe(&borderline).unwrap();
        let lax_decision = lax.observe(&borderline).unwrap();
        // The same LOF score leads to different verdicts under different α.
        assert_eq!(strict_decision.lof, lax_decision.lof);
        assert!(lax_decision.verdict != WindowVerdict::Anomalous);
        assert!(strict.config().alpha < lax.config().alpha);
    }

    #[test]
    fn decision_metadata_reflects_the_window() {
        let mut monitor = learned_monitor(DriftGateConfig::default());
        let w = window(7, &[40, 30, 20, 10], false);
        let decision = monitor.observe(&w).unwrap();
        assert_eq!(decision.window_id, WindowId::new(7));
        assert_eq!(decision.start, Timestamp::from_millis(280));
        assert_eq!(decision.events, 100);
        assert!(!decision.has_error_event);
        assert!(monitor.model().reference_windows() > 0);
    }
}
