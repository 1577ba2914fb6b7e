//! Prometheus-style plain-text rendering of a [`MetricsSnapshot`].

use std::fmt::Write as _;

use crate::snapshot::{HistogramSnapshot, MetricSample, MetricValue, MetricsSnapshot};

/// Renders snapshots as `name{label="v"} value` lines.
///
/// Counters and gauges render as one line each. A histogram renders as
/// `name_count`, `name_sum` and one cumulative `name_bucket{le="..."}`
/// line per non-empty log2 bucket (the `le` value is the bucket's
/// inclusive upper bound, `2^i - 1`), closed by `le="+Inf"` — close
/// enough to the Prometheus exposition format that existing eyes and
/// tooling parse it, without pulling in any dependency.
#[derive(Debug, Clone, Copy, Default)]
pub struct TextExposition;

impl TextExposition {
    /// Renders `snapshot` to a string.
    pub fn render(snapshot: &MetricsSnapshot) -> String {
        let mut out = String::new();
        for sample in &snapshot.samples {
            Self::render_sample(&mut out, sample);
        }
        out
    }

    fn render_sample(out: &mut String, sample: &MetricSample) {
        match &sample.value {
            MetricValue::Counter(v) => {
                Self::line(out, &sample.name, &sample.labels, None, &v.to_string());
            }
            MetricValue::Gauge(v) => {
                Self::line(out, &sample.name, &sample.labels, None, &v.to_string());
            }
            MetricValue::Histogram(h) => Self::render_histogram(out, sample, h),
        }
    }

    fn render_histogram(out: &mut String, sample: &MetricSample, histogram: &HistogramSnapshot) {
        let name = &sample.name;
        Self::line(
            out,
            &format!("{name}_count"),
            &sample.labels,
            None,
            &histogram.count.to_string(),
        );
        Self::line(
            out,
            &format!("{name}_sum"),
            &sample.labels,
            None,
            &histogram.sum.to_string(),
        );
        let mut cumulative = 0u64;
        for &(index, count) in &histogram.buckets {
            cumulative += count;
            // Inclusive upper bound of log2 bucket `i`: 0 for bucket 0,
            // otherwise 2^i - 1.
            let le = if index == 0 {
                0u64
            } else if index >= 64 {
                u64::MAX
            } else {
                (1u64 << index) - 1
            };
            Self::line(
                out,
                &format!("{name}_bucket"),
                &sample.labels,
                Some(("le", &le.to_string())),
                &cumulative.to_string(),
            );
        }
        Self::line(
            out,
            &format!("{name}_bucket"),
            &sample.labels,
            Some(("le", "+Inf")),
            &cumulative.to_string(),
        );
    }

    /// Writes one exposition line, merging an optional extra label (the
    /// histogram `le`) after the sample's own labels.
    fn line(
        out: &mut String,
        name: &str,
        labels: &[(String, String)],
        extra: Option<(&str, &str)>,
        value: &str,
    ) {
        out.push_str(name);
        if !labels.is_empty() || extra.is_some() {
            out.push('{');
            let mut first = true;
            for (key, val) in labels {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "{key}=\"{}\"", escape(val));
            }
            if let Some((key, val)) = extra {
                if !first {
                    out.push(',');
                }
                let _ = write!(out, "{key}=\"{}\"", escape(val));
            }
            out.push('}');
        }
        out.push(' ');
        out.push_str(value);
        out.push('\n');
    }
}

/// Escapes a label value for the exposition format.
fn escape(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}
