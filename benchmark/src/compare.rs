//! `compare parent.json change.json`: one row per (workload, end-to-end
//! metric), with a verdict later issues can quote.

use serde::Value;

use crate::metrics::{declared, Better, MetricDef};
use crate::stats::Summary;
use crate::{json, BenchError};

/// Runs each side needs before a `better` is handed out: with fewer, one
/// lucky run would pass for a gain.
const RUNS_TO_CLAIM: usize = 10;

/// How the change's runs of one metric relate to the parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Both sides have at least ten runs, every run of the change beats
    /// every run of the parent, and the medians differ by more than the
    /// parent's own spread.
    Better,
    /// The change's median is no worse than the parent's by more than the
    /// bound.
    Within,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// The run-to-run spread is wider than the bound and the two sets of
    /// runs overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// The word the table prints.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric from each side's per-run values.
pub fn judge(def: &MetricDef, parent: &[f64], change: &[f64]) -> (Summary, Summary, Verdict) {
    let (p, c) = (Summary::of(parent), Summary::of(change));
    let spread = |s: &Summary| (s.q3 - s.q1) / s.median.abs().max(f64::MIN_POSITIVE);
    // Positive when the change is the better side.
    let gain = match def.better {
        Better::Higher => (c.median - p.median) / p.median.abs().max(f64::MIN_POSITIVE),
        Better::Lower => (p.median - c.median) / p.median.abs().max(f64::MIN_POSITIVE),
    };
    let beats = |a: f64, b: f64| match def.better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    };
    let change_sweeps = change.iter().all(|c| parent.iter().all(|p| beats(*c, *p)));
    let parent_sweeps = parent.iter().all(|p| change.iter().all(|c| beats(*p, *c)));
    let overlap = !change_sweeps && !parent_sweeps;
    let verdict = if spread(&p).max(spread(&c)) > def.bound && overlap {
        Verdict::Unresolved
    } else if gain < -def.bound {
        Verdict::Worse
    } else if parent.len().min(change.len()) >= RUNS_TO_CLAIM && change_sweeps && gain > spread(&p)
    {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (p, c, verdict)
}

/// `(workload, metric)` and that metric's value in every run of a file.
type Series = ((String, String), Vec<f64>);

/// Per-run values of every metric of every workload in a result file
/// written by `run`.
fn values(document: &Value) -> Result<Vec<Series>, BenchError> {
    let malformed = |what: &str| BenchError::Usage(format!("not a result file: {what}"));
    let runs = document
        .get("runs")
        .and_then(json::items)
        .ok_or_else(|| malformed("no `runs` array"))?;
    let mut table: Vec<Series> = Vec::new();
    for run in runs {
        let workloads = run
            .get("workloads")
            .and_then(json::entries)
            .ok_or_else(|| malformed("a run without `workloads`"))?;
        for (workload, result) in workloads {
            let metrics = result
                .get("metrics")
                .and_then(json::entries)
                .ok_or_else(|| malformed("a workload without `metrics`"))?;
            for (metric, entry) in metrics {
                let value = entry
                    .get("value")
                    .and_then(json::number)
                    .ok_or_else(|| malformed("a metric without a numeric `value`"))?;
                let key = (workload.clone(), metric.clone());
                match table.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, values)) => values.push(value),
                    None => table.push((key, vec![value])),
                }
            }
        }
    }
    Ok(table)
}

/// The comparison table of two result files.
pub fn table(parent: &Value, change: &Value) -> Result<String, BenchError> {
    let parent = values(parent)?;
    let change = values(change)?;
    let mut out = format!(
        "{:<13} {:<25} {:>14} {:>23} {:>14} {:>23} {:>17} {:>6}  verdict\n",
        "workload",
        "metric",
        "parent median",
        "parent q1..q3",
        "change median",
        "change q1..q3",
        "change/parent",
        "bound"
    );
    for ((workload, metric), parent_values) in &parent {
        let Some(def) = declared().end_to_end.iter().find(|def| def.name == *metric) else {
            continue;
        };
        let Some((_, change_values)) = change
            .iter()
            .find(|((w, m), _)| w == workload && m == metric)
        else {
            return Err(BenchError::Usage(format!(
                "the change has no `{metric}` for workload `{workload}`"
            )));
        };
        let (p, c, verdict) = judge(def, parent_values, change_values);
        out.push_str(&format!(
            "{:<13} {:<25} {:>14.4} {:>23} {:>14.4} {:>23} {:>8.4} of {:<6.4} {:>6.2}  {} ({} better, n={}/{})\n",
            workload,
            metric,
            p.median,
            format!("{:.4}..{:.4}", p.q1, p.q3),
            c.median,
            format!("{:.4}..{:.4}", c.q1, c.q3),
            c.median / p.median,
            p.median,
            def.bound,
            verdict.as_str(),
            def.better.as_str(),
            p.n,
            c.n,
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate() -> MetricDef {
        MetricDef {
            name: "rate".into(),
            unit: "1/s".into(),
            better: Better::Higher,
            bound: 0.10,
        }
    }

    /// Ten runs scattered ±1 around `centre`.
    fn runs(centre: f64) -> Vec<f64> {
        (0..10).map(|i| centre - 1.0 + f64::from(i) * 0.2).collect()
    }

    #[test]
    fn verdicts() {
        let steady = runs(100.0);
        let verdict = |change: &[f64]| judge(&rate(), &steady, change).2;
        assert_eq!(verdict(&runs(100.3)), Verdict::Within);
        assert_eq!(verdict(&runs(120.0)), Verdict::Better);
        assert_eq!(verdict(&runs(80.0)), Verdict::Worse);
        // Worse by less than the bound stays within.
        assert_eq!(verdict(&runs(95.0)), Verdict::Within);
        // Too few runs to call a gain, however large.
        assert_eq!(verdict(&[120.0, 121.0, 119.0]), Verdict::Within);
        // A spread wider than the bound with overlapping runs decides nothing.
        let noisy = [70.0, 130.0, 100.0, 90.0];
        assert_eq!(judge(&rate(), &noisy, &steady).2, Verdict::Unresolved);
    }

    #[test]
    fn lower_is_better_flips_the_sign() {
        let latency = MetricDef {
            better: Better::Lower,
            ..rate()
        };
        assert_eq!(judge(&latency, &runs(10.0), &runs(7.0)).2, Verdict::Better);
        assert_eq!(judge(&latency, &runs(10.0), &runs(13.0)).2, Verdict::Worse);
    }
}
