use std::fmt;

use lof_anomaly::AnomalyError;
use trace_model::TraceError;

/// Errors produced by the trace-reduction pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// A monitor configuration parameter is out of range.
    InvalidConfig(String),
    /// The reference segment was unusable (too short, empty windows, ...).
    InvalidReference(String),
    /// An error bubbled up from the trace model (windowing, codecs, sinks).
    Trace(TraceError),
    /// An error bubbled up from the anomaly-detection substrate.
    Anomaly(AnomalyError),
    /// A reference model could not be serialised or deserialised.
    ModelSerialization(String),
    /// One worker thread of a [`FleetReducer`](crate::FleetReducer) is
    /// gone (it panicked, or could not be spawned); the other workers'
    /// streams are unaffected and remain recoverable from the outcome.
    Shard {
        /// Index of the failed worker.
        shard: usize,
        /// Rendering of the failure (the panic message, when there is
        /// one).
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig(msg) => write!(f, "invalid monitor configuration: {msg}"),
            CoreError::InvalidReference(msg) => write!(f, "invalid reference trace: {msg}"),
            CoreError::Trace(err) => write!(f, "trace error: {err}"),
            CoreError::Anomaly(err) => write!(f, "anomaly detection error: {err}"),
            CoreError::ModelSerialization(msg) => {
                write!(f, "reference model serialisation error: {msg}")
            }
            CoreError::Shard { shard, message } => {
                write!(f, "shard {shard} failed: {message}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Trace(err) => Some(err),
            CoreError::Anomaly(err) => Some(err),
            _ => None,
        }
    }
}

impl From<TraceError> for CoreError {
    fn from(err: TraceError) -> Self {
        CoreError::Trace(err)
    }
}

impl From<AnomalyError> for CoreError {
    fn from(err: AnomalyError) -> Self {
        CoreError::Anomaly(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants: Vec<CoreError> = vec![
            CoreError::InvalidConfig("alpha".into()),
            CoreError::InvalidReference("empty".into()),
            CoreError::Trace(TraceError::Registry("dup".into())),
            CoreError::Anomaly(AnomalyError::InvalidConfig("k".into())),
            CoreError::ModelSerialization("bad json".into()),
            CoreError::Shard {
                shard: 3,
                message: "sink storage failed".into(),
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn sources_are_preserved_for_wrapped_errors() {
        use std::error::Error as _;
        assert!(CoreError::from(TraceError::Registry("x".into()))
            .source()
            .is_some());
        assert!(CoreError::from(AnomalyError::NonFiniteValue { index: 0 })
            .source()
            .is_some());
        assert!(CoreError::InvalidConfig("x".into()).source().is_none());
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
