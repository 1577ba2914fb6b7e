//! Reduction report: what the monitor did over a whole run.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::RecorderStats;

/// Summary of one monitored run, combining monitor counters and recorder
/// volume accounting.
///
/// This is the headline output of the approach: how much trace was
/// recorded versus how much would have been recorded without the monitor
/// (the paper reports 418 MB vs 5.9 GB, a ~14× reduction).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReductionReport {
    /// Windows in the monitored (post-reference) part of the stream.
    pub monitored_windows: u64,
    /// Windows used to learn the reference model.
    pub reference_windows: u64,
    /// Windows that passed the KL gate and were scored with LOF.
    pub lof_evaluations: u64,
    /// Windows flagged anomalous and recorded.
    pub anomalous_windows: u64,
    /// Anomaly threshold α in effect.
    pub alpha: f64,
    /// Volume accounting from the recorder.
    pub recorder: RecorderStats,
}

impl ReductionReport {
    /// Volume reduction factor (total trace size / recorded size).
    pub fn reduction_factor(&self) -> f64 {
        self.recorder.reduction_factor()
    }

    /// Fraction of monitored windows that were recorded.
    pub fn recorded_window_fraction(&self) -> f64 {
        if self.monitored_windows == 0 {
            0.0
        } else {
            self.anomalous_windows as f64 / self.monitored_windows as f64
        }
    }

    /// Fraction of monitored windows that needed a LOF evaluation (the rest
    /// were absorbed by the KL gate).
    pub fn lof_evaluation_fraction(&self) -> f64 {
        if self.monitored_windows == 0 {
            0.0
        } else {
            self.lof_evaluations as f64 / self.monitored_windows as f64
        }
    }

    /// A report with every counter at zero, the unit of [`merge`]: what a
    /// fleet that reduced no stream aggregates to.
    ///
    /// [`merge`]: ReductionReport::merge
    pub fn empty(alpha: f64) -> Self {
        ReductionReport {
            monitored_windows: 0,
            reference_windows: 0,
            lof_evaluations: 0,
            anomalous_windows: 0,
            alpha,
            recorder: RecorderStats::default(),
        }
    }

    /// Folds another report's counters into this one, consolidating
    /// per-stream reports into the fleet aggregate. `alpha` is left
    /// untouched: all sessions of one run share a configuration.
    pub fn merge(&mut self, other: &ReductionReport) {
        self.monitored_windows += other.monitored_windows;
        self.reference_windows += other.reference_windows;
        self.lof_evaluations += other.lof_evaluations;
        self.anomalous_windows += other.anomalous_windows;
        self.recorder.merge(&other.recorder);
    }
}

impl fmt::Display for ReductionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "reduction report (alpha = {:.2}): {} reference windows, {} monitored windows",
            self.alpha, self.reference_windows, self.monitored_windows
        )?;
        writeln!(
            f,
            "  LOF evaluations: {} ({:.1}% of windows)",
            self.lof_evaluations,
            100.0 * self.lof_evaluation_fraction()
        )?;
        writeln!(
            f,
            "  anomalous windows recorded: {} ({:.2}% of windows)",
            self.anomalous_windows,
            100.0 * self.recorded_window_fraction()
        )?;
        writeln!(
            f,
            "  trace volume: {} bytes total, {} bytes recorded ({} bytes after encoding)",
            self.recorder.total_raw_bytes,
            self.recorder.recorded_raw_bytes,
            self.recorder.recorded_encoded_bytes
        )?;
        write!(f, "  reduction factor: {:.1}x", self.reduction_factor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReductionReport {
        ReductionReport {
            monitored_windows: 1_000,
            reference_windows: 200,
            lof_evaluations: 150,
            anomalous_windows: 50,
            alpha: 1.2,
            recorder: RecorderStats {
                windows_seen: 1_000,
                windows_recorded: 50,
                events_recorded: 5_000,
                total_raw_bytes: 1_600_000,
                recorded_raw_bytes: 80_000,
                recorded_encoded_bytes: 20_000,
            },
        }
    }

    #[test]
    fn ratios_are_computed_from_counters() {
        let report = sample();
        assert!((report.reduction_factor() - 20.0).abs() < 1e-12);
        assert!((report.recorded_window_fraction() - 0.05).abs() < 1e-12);
        assert!((report.lof_evaluation_fraction() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_well_defined() {
        let report = ReductionReport {
            monitored_windows: 0,
            reference_windows: 0,
            lof_evaluations: 0,
            anomalous_windows: 0,
            alpha: 1.2,
            recorder: RecorderStats::default(),
        };
        assert_eq!(report.recorded_window_fraction(), 0.0);
        assert_eq!(report.lof_evaluation_fraction(), 0.0);
        assert_eq!(report.reduction_factor(), 1.0);
    }

    #[test]
    fn display_mentions_the_key_figures() {
        let text = sample().to_string();
        assert!(text.contains("reduction factor: 20.0x"));
        assert!(text.contains("alpha = 1.20"));
        assert!(text.contains("anomalous windows recorded: 50"));
    }

    #[test]
    fn serde_round_trip() {
        let report = sample();
        let json = serde_json::to_string(&report).unwrap();
        let back: ReductionReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
