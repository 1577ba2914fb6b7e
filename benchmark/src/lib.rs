//! End-to-end benchmark of the trace-reduction pipeline.
//!
//! Three workloads drive the production-shaped path — `mm-sim` trace →
//! `FleetReducer` → `LaneWriter` → `Subscription` → `Compactor` →
//! `StoreReader` / `Snapshot` → `extract_window` + `minimize` — and report
//! eleven end-to-end metrics each; a separate traced run breaks the same
//! path down by layer. See `README.md` next to this crate's manifest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod compare;
pub mod isolation;
pub mod json;
pub mod metrics;
pub mod pipeline;
pub mod run;
pub mod spec;
pub mod stats;
pub mod tracer;

/// Why a run did not produce a result.
#[derive(Debug)]
pub enum BenchError {
    /// The command line or the scratch directory was not usable.
    Usage(String),
    /// An output check failed: the program under test produced something
    /// wrong, so no number of this run means anything.
    Check(String),
    /// A call into the program under test returned an error.
    Failed(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Usage(msg) => write!(f, "usage: {msg}"),
            BenchError::Check(msg) => write!(f, "output check failed: {msg}"),
            BenchError::Failed(msg) => write!(f, "operation failed: {msg}"),
        }
    }
}

impl std::error::Error for BenchError {}

macro_rules! failed_from {
    ($($source:ty),* $(,)?) => {
        $(impl From<$source> for BenchError {
            fn from(err: $source) -> Self {
                BenchError::Failed(err.to_string())
            }
        })*
    };
}

failed_from!(
    mm_sim::SimError,
    endurance_core::CoreError,
    trace_model::TraceError,
    endurance_repro::ReproError,
    serde_json::Error,
    std::io::Error,
);
