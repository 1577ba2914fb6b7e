//! Monitor configuration: window strategy, LOF parameters, drift gate.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use lof_anomaly::DistanceKind;
use trace_model::{TraceError, WindowAssembler};

use crate::CoreError;

/// How the incoming trace is cut into windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowStrategy {
    /// Fixed trace-time windows; the paper uses 40 ms.
    Time(Duration),
    /// Fixed number of events per window, mirroring the tracing-hardware
    /// buffer size.
    Count(usize),
}

impl WindowStrategy {
    /// The assembler that cuts a trace into this strategy's windows.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidWindowConfig`] where
    /// [`WindowAssembler::for_count`] or [`WindowAssembler::for_time`]
    /// refuses the size: zero events, 0 ns, or 2^64 ns or more.
    pub fn assembler(&self) -> Result<WindowAssembler, TraceError> {
        match *self {
            WindowStrategy::Time(duration) => WindowAssembler::for_time(duration),
            WindowStrategy::Count(size) => WindowAssembler::for_count(size),
        }
    }
}

impl Default for WindowStrategy {
    fn default() -> Self {
        WindowStrategy::Time(Duration::from_millis(40))
    }
}

/// Configuration of the Kullback–Leibler drift gate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DriftGateConfig {
    /// Fixed similarity threshold on the symmetric KL divergence between
    /// the new window's pmf and the running aggregate.
    Fixed(f64),
    /// Calibrate the threshold from the reference segment: the given
    /// percentile (in `[0, 1]`) of the reference windows' divergence from
    /// the reference aggregate.
    Auto {
        /// Percentile of reference divergences used as the threshold.
        percentile: f64,
    },
    /// Disable the gate entirely: every window goes through LOF scoring.
    Disabled,
}

impl Default for DriftGateConfig {
    fn default() -> Self {
        DriftGateConfig::Auto { percentile: 0.95 }
    }
}

/// Full configuration of the online monitor.
///
/// Defaults follow the paper's experiment: 40 ms windows, `K = 20`
/// neighbours, `α = 1.2`, Euclidean LOF distance, auto-calibrated KL gate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Window segmentation strategy.
    pub window: WindowStrategy,
    /// Number of pmf dimensions (event types). Must match the registry the
    /// trace was produced with.
    pub dimensions: usize,
    /// LOF neighbourhood size (`K`).
    pub k: usize,
    /// Anomaly threshold `α` on the LOF score.
    pub alpha: f64,
    /// Distance used for LOF neighbourhood queries.
    pub distance: DistanceKind,
    /// Drift-gate behaviour.
    pub drift_gate: DriftGateConfig,
    /// Weight of a newly merged window in the running aggregate
    /// (exponential moving average coefficient in `(0, 1]`).
    pub merge_weight: f64,
    /// Length of the reference segment learned at the start of the stream.
    pub reference_duration: Duration,
    /// Laplace smoothing pseudo-count applied to window pmfs.
    pub smoothing: f64,
}

impl MonitorConfig {
    /// Starts building a configuration.
    pub fn builder() -> MonitorConfigBuilder {
        MonitorConfigBuilder::default()
    }

    /// The paper's configuration for a registry with `dimensions` event
    /// types: 40 ms windows, `K = 20`, `α = 1.2`, 300 s reference segment.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `dimensions` is zero.
    pub fn paper_defaults(dimensions: usize) -> Result<Self, CoreError> {
        MonitorConfig::builder().dimensions(dimensions).build()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] describing the first problem
    /// found.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.dimensions == 0 {
            return Err(CoreError::InvalidConfig(
                "pmf dimensionality must be at least 1".into(),
            ));
        }
        match self.window {
            WindowStrategy::Time(d) if d.is_zero() => {
                return Err(CoreError::InvalidConfig(
                    "time window duration must be non-zero".into(),
                ))
            }
            WindowStrategy::Time(d) if u64::try_from(d.as_nanos()).is_err() => {
                return Err(CoreError::InvalidConfig(format!(
                    "time window duration must be under 2^64 ns, got {d:?}"
                )))
            }
            WindowStrategy::Count(0) => {
                return Err(CoreError::InvalidConfig(
                    "count window size must be at least 1".into(),
                ))
            }
            _ => {}
        }
        if self.k == 0 {
            return Err(CoreError::InvalidConfig(
                "LOF neighbourhood size K must be at least 1".into(),
            ));
        }
        if !(self.alpha.is_finite() && self.alpha >= 1.0) {
            return Err(CoreError::InvalidConfig(format!(
                "anomaly threshold alpha must be finite and >= 1.0, got {}",
                self.alpha
            )));
        }
        match self.drift_gate {
            DriftGateConfig::Fixed(t) if !(t.is_finite() && t >= 0.0) => {
                return Err(CoreError::InvalidConfig(
                    "fixed drift-gate threshold must be finite and non-negative".into(),
                ))
            }
            DriftGateConfig::Auto { percentile } if !(0.0..=1.0).contains(&percentile) => {
                return Err(CoreError::InvalidConfig(
                    "drift-gate percentile must be within [0, 1]".into(),
                ))
            }
            _ => {}
        }
        if !(self.merge_weight > 0.0 && self.merge_weight <= 1.0) {
            return Err(CoreError::InvalidConfig(
                "merge weight must be within (0, 1]".into(),
            ));
        }
        if self.reference_duration.is_zero() {
            return Err(CoreError::InvalidConfig(
                "reference duration must be non-zero".into(),
            ));
        }
        if !(self.smoothing.is_finite() && self.smoothing >= 0.0) {
            return Err(CoreError::InvalidConfig(
                "smoothing pseudo-count must be finite and non-negative".into(),
            ));
        }
        Ok(())
    }
}

/// Builder for [`MonitorConfig`].
#[derive(Debug, Clone)]
pub struct MonitorConfigBuilder {
    config: MonitorConfig,
}

impl Default for MonitorConfigBuilder {
    fn default() -> Self {
        MonitorConfigBuilder {
            config: MonitorConfig {
                window: WindowStrategy::default(),
                dimensions: 0,
                k: 20,
                alpha: 1.2,
                distance: DistanceKind::Euclidean,
                drift_gate: DriftGateConfig::default(),
                merge_weight: 0.05,
                reference_duration: Duration::from_secs(300),
                smoothing: 0.5,
            },
        }
    }
}

impl MonitorConfigBuilder {
    /// Sets the window strategy.
    pub fn window(mut self, window: WindowStrategy) -> Self {
        self.config.window = window;
        self
    }

    /// Sets the pmf dimensionality (number of event types).
    pub fn dimensions(mut self, dimensions: usize) -> Self {
        self.config.dimensions = dimensions;
        self
    }

    /// Sets the LOF neighbourhood size `K`.
    pub fn k(mut self, k: usize) -> Self {
        self.config.k = k;
        self
    }

    /// Sets the anomaly threshold `α`.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.config.alpha = alpha;
        self
    }

    /// Sets the LOF distance.
    pub fn distance(mut self, distance: DistanceKind) -> Self {
        self.config.distance = distance;
        self
    }

    /// Sets the drift-gate behaviour.
    pub fn drift_gate(mut self, gate: DriftGateConfig) -> Self {
        self.config.drift_gate = gate;
        self
    }

    /// Sets the running-aggregate merge weight.
    pub fn merge_weight(mut self, weight: f64) -> Self {
        self.config.merge_weight = weight;
        self
    }

    /// Sets the reference segment length.
    pub fn reference_duration(mut self, duration: Duration) -> Self {
        self.config.reference_duration = duration;
        self
    }

    /// Sets the pmf smoothing pseudo-count.
    pub fn smoothing(mut self, smoothing: f64) -> Self {
        self.config.smoothing = smoothing;
        self
    }

    /// Finalises and validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the configuration is
    /// inconsistent (see [`MonitorConfig::validate`]).
    pub fn build(self) -> Result<MonitorConfig, CoreError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_strategy_builds_the_assembler_its_constructor_does() {
        let past_2_pow_64_ns = Duration::from_nanos(u64::MAX) + Duration::from_nanos(1);
        for duration in [
            Duration::from_millis(40),
            Duration::from_nanos(1),
            Duration::ZERO,
            past_2_pow_64_ns,
        ] {
            assert_eq!(
                format!("{:?}", WindowStrategy::Time(duration).assembler()),
                format!("{:?}", WindowAssembler::for_time(duration)),
                "{duration:?}"
            );
        }
        for size in [1, 64, 0] {
            assert_eq!(
                format!("{:?}", WindowStrategy::Count(size).assembler()),
                format!("{:?}", WindowAssembler::for_count(size)),
                "{size}"
            );
        }
        for refused in [
            WindowStrategy::Count(0),
            WindowStrategy::Time(Duration::ZERO),
            WindowStrategy::Time(past_2_pow_64_ns),
        ] {
            assert!(
                matches!(refused.assembler(), Err(TraceError::InvalidWindowConfig(_))),
                "{refused:?}"
            );
        }
    }

    #[test]
    fn paper_defaults_match_the_publication() {
        let config = MonitorConfig::paper_defaults(14).unwrap();
        assert_eq!(
            config.window,
            WindowStrategy::Time(Duration::from_millis(40))
        );
        assert_eq!(config.k, 20);
        assert!((config.alpha - 1.2).abs() < 1e-12);
        assert_eq!(config.reference_duration, Duration::from_secs(300));
        assert_eq!(config.dimensions, 14);
    }

    #[test]
    fn builder_rejects_invalid_parameters() {
        assert!(MonitorConfig::builder().dimensions(0).build().is_err());
        assert!(MonitorConfig::builder().dimensions(4).k(0).build().is_err());
        assert!(MonitorConfig::builder()
            .dimensions(4)
            .alpha(0.5)
            .build()
            .is_err());
        assert!(MonitorConfig::builder()
            .dimensions(4)
            .alpha(f64::NAN)
            .build()
            .is_err());
        assert!(MonitorConfig::builder()
            .dimensions(4)
            .window(WindowStrategy::Count(0))
            .build()
            .is_err());
        assert!(MonitorConfig::builder()
            .dimensions(4)
            .window(WindowStrategy::Time(Duration::ZERO))
            .build()
            .is_err());
        for past_a_timestamp in [
            Duration::from_nanos(u64::MAX) + Duration::from_nanos(1),
            Duration::MAX,
        ] {
            let mut config = MonitorConfig::paper_defaults(4).unwrap();
            config.window = WindowStrategy::Time(past_a_timestamp);
            assert!(matches!(
                config.validate(),
                Err(CoreError::InvalidConfig(_))
            ));
        }
        assert!(MonitorConfig::builder()
            .dimensions(4)
            .merge_weight(0.0)
            .build()
            .is_err());
        assert!(MonitorConfig::builder()
            .dimensions(4)
            .merge_weight(1.5)
            .build()
            .is_err());
        assert!(MonitorConfig::builder()
            .dimensions(4)
            .reference_duration(Duration::ZERO)
            .build()
            .is_err());
        assert!(MonitorConfig::builder()
            .dimensions(4)
            .smoothing(-1.0)
            .build()
            .is_err());
        assert!(MonitorConfig::builder()
            .dimensions(4)
            .drift_gate(DriftGateConfig::Fixed(-0.1))
            .build()
            .is_err());
        assert!(MonitorConfig::builder()
            .dimensions(4)
            .drift_gate(DriftGateConfig::Auto { percentile: 1.5 })
            .build()
            .is_err());
    }

    #[test]
    fn builder_accepts_custom_valid_configuration() {
        let config = MonitorConfig::builder()
            .dimensions(8)
            .k(10)
            .alpha(2.0)
            .window(WindowStrategy::Count(512))
            .drift_gate(DriftGateConfig::Disabled)
            .merge_weight(0.2)
            .reference_duration(Duration::from_secs(60))
            .smoothing(1.0)
            .distance(DistanceKind::Manhattan)
            .build()
            .unwrap();
        assert_eq!(config.window, WindowStrategy::Count(512));
        assert_eq!(config.drift_gate, DriftGateConfig::Disabled);
        assert_eq!(config.distance, DistanceKind::Manhattan);
    }

    #[test]
    fn config_serde_round_trip() {
        let config = MonitorConfig::paper_defaults(5).unwrap();
        let json = serde_json::to_string(&config).unwrap();
        let back: MonitorConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }
}
