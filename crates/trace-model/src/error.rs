use std::fmt;

/// Errors produced by the trace model, windowers and codecs.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// A binary trace could not be decoded.
    Decode {
        /// Byte offset at which decoding failed.
        offset: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// An event type name was registered twice or an id was unknown.
    Registry(String),
    /// A windower was configured with an invalid parameter (e.g. zero size).
    InvalidWindowConfig(String),
    /// Events were not in non-decreasing timestamp order where required.
    OutOfOrder {
        /// Timestamp of the offending event.
        found: crate::Timestamp,
        /// Timestamp it should not have preceded.
        previous: crate::Timestamp,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(err) => write!(f, "i/o error: {err}"),
            TraceError::Decode { offset, reason } => {
                write!(f, "decode error at byte {offset}: {reason}")
            }
            TraceError::Registry(msg) => write!(f, "event registry error: {msg}"),
            TraceError::InvalidWindowConfig(msg) => {
                write!(f, "invalid window configuration: {msg}")
            }
            TraceError::OutOfOrder { found, previous } => write!(
                f,
                "out-of-order event: timestamp {found} precedes {previous}"
            ),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(err: std::io::Error) -> Self {
        TraceError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Timestamp;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants: Vec<TraceError> = vec![
            TraceError::Io(std::io::Error::other("boom")),
            TraceError::Decode {
                offset: 12,
                reason: "bad magic".into(),
            },
            TraceError::Registry("duplicate".into()),
            TraceError::InvalidWindowConfig("zero".into()),
            TraceError::OutOfOrder {
                found: Timestamp::from_nanos(1),
                previous: Timestamp::from_nanos(2),
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
            // Debug is also non-empty (C-DEBUG-NONEMPTY).
            assert!(!format!("{v:?}").is_empty());
        }
    }

    #[test]
    fn io_error_preserves_source() {
        use std::error::Error as _;
        let err = TraceError::from(std::io::Error::other("boom"));
        assert!(err.source().is_some());
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceError>();
    }
}
