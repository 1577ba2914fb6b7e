//! Plain-text tables for the experiment binaries.

use crate::{format_bytes, BaselineResult, ExperimentResult, SweepPoint};

/// Renders the Figure 1 data: precision and recall (plus volume) per LOF
/// threshold, one row per `α`.
pub fn sweep_table(points: &[SweepPoint]) -> String {
    let mut out = String::new();
    out.push_str(
        "alpha   precision  recall   f1      recorded_windows  recorded_size  reduction\n",
    );
    out.push_str(
        "-----   ---------  ------   ------  ----------------  -------------  ---------\n",
    );
    for p in points {
        let reduction = if p.reduction_factor.is_finite() {
            format!("{:8.1}x", p.reduction_factor)
        } else {
            "      inf".to_owned()
        };
        out.push_str(&format!(
            "{:<7.2} {:>9.3}  {:>6.3}  {:>6.3}  {:>16}  {:>13}  {}\n",
            p.alpha,
            p.precision,
            p.recall,
            p.f1,
            p.recorded_windows,
            format_bytes(p.recorded_bytes),
            reduction
        ));
    }
    out
}

/// Renders the headline operating-point table (the paper's Section III
/// numbers at `α = 1.2`): precision, recall, recorded volume, reduction.
pub fn headline_table(result: &ExperimentResult) -> String {
    let report = &result.report;
    let mut out = String::new();
    out.push_str("metric                     measured\n");
    out.push_str("-------------------------  ---------------\n");
    out.push_str(&format!("alpha                      {:.2}\n", report.alpha));
    out.push_str(&format!(
        "precision                  {:.1}%\n",
        100.0 * result.confusion.precision()
    ));
    out.push_str(&format!(
        "recall                     {:.1}%\n",
        100.0 * result.confusion.recall()
    ));
    out.push_str(&format!(
        "monitored windows          {}\n",
        report.monitored_windows
    ));
    out.push_str(&format!(
        "recorded windows           {}\n",
        report.anomalous_windows
    ));
    out.push_str(&format!(
        "full trace size            {}\n",
        format_bytes(report.recorder.total_raw_bytes)
    ));
    out.push_str(&format!(
        "recorded trace size        {}\n",
        format_bytes(report.recorder.recorded_raw_bytes)
    ));
    out.push_str(&format!(
        "reduction factor           {:.1}x\n",
        report.reduction_factor()
    ));
    if let Some(delays) = result.delays {
        out.push_str(&format!(
            "calibrated delta_s         {:.2}s\n",
            delays.delta_start.as_secs_f64()
        ));
        out.push_str(&format!(
            "calibrated delta_e         {:.2}s\n",
            delays.delta_end.as_secs_f64()
        ));
    }
    out
}

/// Renders the baseline-comparison table.
pub fn baseline_table(results: &[BaselineResult]) -> String {
    let mut out = String::new();
    out.push_str("baseline                   precision  recall   recorded_size  reduction\n");
    out.push_str("-------------------------  ---------  ------   -------------  ---------\n");
    for r in results {
        let reduction = if r.reduction_factor.is_finite() {
            format!("{:8.1}x", r.reduction_factor)
        } else {
            "      inf".to_owned()
        };
        out.push_str(&format!(
            "{:<25}  {:>9.3}  {:>6.3}  {:>13}  {}\n",
            r.name,
            r.precision(),
            r.recall(),
            format_bytes(r.recorded_bytes),
            reduction
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConfusionMatrix;

    #[test]
    fn sweep_table_has_one_row_per_point() {
        let points: Vec<SweepPoint> = (0..5)
            .map(|i| SweepPoint {
                alpha: 1.0 + i as f64 * 0.5,
                precision: 0.8,
                recall: 0.7,
                f1: 0.74,
                recorded_windows: 100,
                recorded_bytes: 1_000_000,
                total_bytes: 10_000_000,
                reduction_factor: 10.0,
                confusion: ConfusionMatrix::default(),
            })
            .collect();
        let table = sweep_table(&points);
        assert_eq!(table.lines().count(), 2 + 5);
        assert!(table.contains("alpha"));
        assert!(table.contains("10.0x"));
    }

    #[test]
    fn sweep_table_handles_infinite_reduction() {
        let point = SweepPoint {
            alpha: 3.0,
            precision: 0.0,
            recall: 0.0,
            f1: 0.0,
            recorded_windows: 0,
            recorded_bytes: 0,
            total_bytes: 10_000_000,
            reduction_factor: f64::INFINITY,
            confusion: ConfusionMatrix::default(),
        };
        assert!(sweep_table(&[point]).contains("inf"));
    }

    #[test]
    fn headline_table_reports_the_operating_point() {
        use crate::{DelayCalibration, ExperimentResult, GroundTruth};
        use endurance_core::{RecorderStats, ReductionReport};
        use std::time::Duration;

        let result = ExperimentResult {
            report: ReductionReport {
                monitored_windows: 1_000,
                reference_windows: 100,
                lof_evaluations: 200,
                anomalous_windows: 80,
                alpha: 1.2,
                recorder: RecorderStats {
                    windows_seen: 1_000,
                    windows_recorded: 80,
                    events_recorded: 1_600,
                    total_raw_bytes: 320_000,
                    recorded_raw_bytes: 25_600,
                    recorded_encoded_bytes: 6_400,
                },
            },
            confusion: ConfusionMatrix {
                true_positives: 60,
                false_positives: 20,
                false_negatives: 15,
                true_negatives: 905,
            },
            delays: Some(DelayCalibration {
                delta_start: Duration::from_millis(1_500),
                delta_end: Duration::from_millis(200),
            }),
            truth: GroundTruth::from_intervals(vec![]),
            decisions: vec![],
            labeled: vec![],
            model: None,
        };
        let table = headline_table(&result);
        assert!(table.contains("alpha                      1.20"));
        assert!(table.contains("precision                  75.0%"));
        assert!(table.contains("recall                     80.0%"));
        assert!(table.contains("reduction factor           12.5x"));
        assert!(table.contains("delta_s         1.50s"));
        assert!(table.contains("delta_e         0.20s"));
    }

    #[test]
    fn baseline_table_lists_every_baseline() {
        let results = vec![
            BaselineResult {
                name: "record-all".into(),
                confusion: ConfusionMatrix::default(),
                recorded_windows: 1000,
                recorded_bytes: 5_000_000,
                total_bytes: 5_000_000,
                reduction_factor: 1.0,
            },
            BaselineResult {
                name: "z-score(4.0)".into(),
                confusion: ConfusionMatrix::default(),
                recorded_windows: 50,
                recorded_bytes: 250_000,
                total_bytes: 5_000_000,
                reduction_factor: 20.0,
            },
        ];
        let table = baseline_table(&results);
        assert!(table.contains("record-all"));
        assert!(table.contains("z-score(4.0)"));
        assert!(table.contains("20.0x"));
    }
}
