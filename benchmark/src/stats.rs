//! Order statistics over timing samples.

use serde::Value;

/// Lower decile, median, quartiles and the highest percentile the sample
/// supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Fastest sample.
    pub min: f64,
    /// 10th percentile: what the operation takes while the host leaves it
    /// alone. A shared host only ever slows a sample down, for milliseconds
    /// or for tens of seconds at a time, so the slow half of a run's samples
    /// says more about the neighbours than about the program, and the
    /// median moves with them. The end-to-end timings report this.
    pub low: f64,
    /// 50th percentile.
    pub median: f64,
    /// 25th percentile.
    pub q1: f64,
    /// 75th percentile.
    pub q3: f64,
    /// The highest of p90 / p99 / p99.9 / p99.99 that still has at least
    /// ten samples beyond it, with its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (any order). Panics on an empty sample: every
    /// phase takes at least one.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = tail_percentile(sorted.len()).map(|p| (p * 100.0, quantile(&sorted, p)));
        Summary {
            n: sorted.len(),
            min: sorted[0],
            low: quantile(&sorted, LOW),
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            tail,
        }
    }

    /// `{n, min, low, median, q1, q3, tail_percentile, tail}`.
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("n".to_string(), Value::UInt(self.n as u64)),
            ("min".to_string(), Value::Float(self.min)),
            ("low".to_string(), Value::Float(self.low)),
            ("median".to_string(), Value::Float(self.median)),
            ("q1".to_string(), Value::Float(self.q1)),
            ("q3".to_string(), Value::Float(self.q3)),
        ];
        if let Some((percentile, value)) = self.tail {
            fields.push(("tail_percentile".to_string(), Value::Float(percentile)));
            fields.push(("tail".to_string(), Value::Float(value)));
        }
        Value::Object(fields)
    }
}

/// The quantile [`Summary::low`] reports.
const LOW: f64 = 0.1;

/// The highest of p90 / p99 / p99.9 / p99.99 that `n` samples leave at
/// least ten samples beyond.
fn tail_percentile(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p) >= 10.0)
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Median of `samples` (any order).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Samples of an operation that is timed in sections: the same sections,
/// each the same work, every time the operation is repeated.
///
/// While the host is busy hardly any sample of an operation that takes a
/// second is left alone from end to end, but a section of tens of
/// milliseconds often is, in one repetition or another. So the operation's
/// time is the sum over its sections of each section's lower decile over
/// the repetitions: the undisturbed whole, put together from undisturbed
/// parts.
#[derive(Debug, Clone, Default)]
pub struct Sectioned {
    /// `sections[i]` holds section `i`'s duration in every repetition.
    sections: Vec<Vec<f64>>,
}

impl Sectioned {
    /// Adds one repetition, a duration per section. Panics when the number
    /// of sections differs from the repetitions before.
    pub fn push(&mut self, repetition: &[f64]) {
        if self.sections.is_empty() {
            self.sections = vec![Vec::new(); repetition.len()];
        }
        assert_eq!(
            self.sections.len(),
            repetition.len(),
            "every repetition has the same sections"
        );
        for (section, duration) in self.sections.iter_mut().zip(repetition) {
            section.push(*duration);
        }
    }

    /// The sum of the sections' lower deciles. Panics when empty.
    pub fn low(&self) -> f64 {
        assert!(!self.sections.is_empty(), "a sum needs a repetition");
        self.sections
            .iter()
            .map(|section| Summary::of(section).low)
            .sum()
    }

    /// Every repetition's duration as a whole, in the order pushed.
    pub fn totals(&self) -> Vec<f64> {
        let repetitions = self.sections.first().map_or(0, Vec::len);
        (0..repetitions)
            .map(|r| self.sections.iter().map(|section| section[r]).sum())
            .collect()
    }
}

/// Latencies counted per nanosecond, so that millions of samples take the
/// memory of one: a run's peak memory must not grow with how many rounds
/// fit into it.
#[derive(Debug, Clone)]
pub struct NsHistogram {
    /// `counts[ns]`; latencies of `LIMIT_NS` and more share the last bin.
    counts: Vec<u32>,
    n: u64,
}

impl NsHistogram {
    /// Longest latency told apart, in nanoseconds (131 µs; a point query
    /// takes under one).
    const LIMIT_NS: usize = 1 << 17;

    /// An empty histogram.
    pub fn new() -> Self {
        NsHistogram {
            counts: vec![0; Self::LIMIT_NS + 1],
            n: 0,
        }
    }

    /// Counts one latency.
    pub fn record(&mut self, ns: u64) {
        self.counts[(ns as usize).min(Self::LIMIT_NS)] += 1;
        self.n += 1;
    }

    /// Samples counted.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether nothing was counted.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The `q` quantile in nanoseconds, the samples of one bin spread
    /// evenly over its nanosecond. Panics on an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        assert!(self.n > 0, "a quantile needs at least one sample");
        let rank = q * (self.n - 1) as f64;
        let mut below = 0u64;
        for (ns, &count) in self.counts.iter().enumerate() {
            let count = u64::from(count);
            if count > 0 && rank < (below + count) as f64 {
                return ns as f64 + (rank - below as f64) / count as f64;
            }
            below += count;
        }
        Self::LIMIT_NS as f64
    }

    /// Median, quartiles and tail of the samples, scaled by `scale`
    /// (`1e-3` for microseconds).
    pub fn summary(&self, scale: f64) -> Summary {
        let at = |q: f64| self.quantile_ns(q) * scale;
        Summary {
            n: self.n as usize,
            min: at(0.0),
            low: at(LOW),
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            tail: tail_percentile(self.n as usize).map(|p| (p * 100.0, at(p))),
        }
    }
}

impl Default for NsHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_and_tail() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let summary = Summary::of(&samples);
        assert_eq!(summary.n, 1000);
        assert_eq!(summary.min, 1.0);
        assert!((summary.low - 100.9).abs() < 1e-9);
        assert!((summary.median - 500.5).abs() < 1e-9);
        assert!((summary.q1 - 250.75).abs() < 1e-9);
        assert!((summary.q3 - 750.25).abs() < 1e-9);
        // 1000 samples leave exactly ten beyond p99, not beyond p99.9.
        assert_eq!(summary.tail.map(|(p, _)| p), Some(99.0));
        assert!(Summary::of(&[1.0, 2.0, 3.0]).tail.is_none());
    }

    #[test]
    fn sectioned_sums_the_quiet_parts() {
        // Each repetition is disturbed in another section; no repetition
        // is quiet as a whole, every section is quiet somewhere.
        let mut sectioned = Sectioned::default();
        for disturbed in 0..3 {
            let mut repetition = [1.0, 2.0, 3.0];
            repetition[disturbed] *= 2.0;
            sectioned.push(&repetition);
        }
        assert_eq!(sectioned.totals(), vec![7.0, 8.0, 9.0]);
        // p10 of three samples sits a fifth of the way from the fastest
        // to the next, and two of each section's three are quiet.
        assert!((sectioned.low() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_agrees_with_the_sorted_samples() {
        let mut histogram = NsHistogram::new();
        let samples: Vec<f64> = (0..1000).map(|i| f64::from(300 + i % 200)).collect();
        for ns in &samples {
            histogram.record(*ns as u64);
        }
        histogram.record(u64::MAX);
        let summary = histogram.summary(1.0);
        let exact = Summary::of(&samples);
        assert_eq!(summary.n, 1001);
        assert_eq!(summary.min, 300.0);
        // Within the nanosecond a bin spans.
        assert!((summary.median - exact.median).abs() <= 1.0);
        assert!((summary.q1 - exact.q1).abs() <= 1.0);
        assert!((summary.q3 - exact.q3).abs() <= 1.0);
        assert_eq!(summary.tail.map(|(p, _)| p), Some(99.0));
        assert_eq!(histogram.quantile_ns(1.0), NsHistogram::LIMIT_NS as f64);
    }
}
