//! # endurance-core
//!
//! Online trace-size reduction for multimedia endurance tests — a Rust
//! reproduction of *"Reducing trace size in multimedia applications
//! endurance tests"* (Emteu Tchagou et al., DATE 2015).
//!
//! The idea: endurance tests run a multimedia application for hours or days
//! while tracing hardware streams execution events. Recording everything is
//! impractical, so this library monitors the stream **online** and records
//! only the windows whose behaviour departs from a learned reference:
//!
//! 1. the trace is cut into windows (40 ms or `N` events);
//! 2. each window becomes a probability mass function (pmf) over event
//!    types ([`WindowPmf`]);
//! 3. a reference model is learned from a known-good segment
//!    ([`ReferenceModel`]);
//! 4. online, a cheap Kullback–Leibler gate ([`DriftGate`]) filters windows
//!    that look like the recent past and merges them into the running
//!    aggregate, tracking slow drift;
//! 5. windows that pass the gate are scored with the Local Outlier Factor
//!    against the reference model; scores at or above `α` mark the window
//!    anomalous and it is recorded ([`TraceRecorder`]).
//!
//! The [`ReductionSession`] ties all of this together behind a push-based,
//! bounded-memory API: create a session, feed it events as they arrive,
//! and finish it to obtain the [`ReductionReport`]. Because the session
//! never buffers more than the open window (plus the reference segment
//! while learning), it runs for days next to the tracing hardware.
//!
//! Multi-stream rigs (one trace stream per device, pipeline or tenant)
//! scale past one core with the [`FleetReducer`]: tagged events are
//! routed by [`trace_model::StreamId`] to session workers on bounded
//! channels, one session per id, and `finish` merges the per-stream
//! reports into one consolidated [`FleetOutcome`]. Sources pushed under
//! a shared id (see [`shard_of`]) are reduced together as one shard.
//!
//! ## Quick example
//!
//! ```rust
//! use endurance_core::{MonitorConfig, ReductionSession};
//! use trace_model::{EventTypeId, TraceEvent, Timestamp};
//!
//! # fn main() -> Result<(), endurance_core::CoreError> {
//! let config = MonitorConfig::builder()
//!     .dimensions(1)
//!     .reference_duration(std::time::Duration::from_secs(2))
//!     .build()?;
//!
//! // Push the stream incrementally — a toy trace: one event type, steady
//! // rate. Real callers push from a hardware buffer as data arrives.
//! let mut session = ReductionSession::new(config)?;
//! for i in 0..50_000u64 {
//!     let event = TraceEvent::new(Timestamp::from_micros(i * 200), EventTypeId::new(0), 0);
//!     session.push(event)?;
//! }
//!
//! let outcome = session.finish()?;
//! assert!(outcome.report.reduction_factor() > 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! Sessions are generic over where recorded events go
//! ([`trace_model::EventSink`]) and who sees the per-window decisions
//! ([`DecisionObserver`]); install both before pushing:
//!
//! ```rust
//! use endurance_core::{FnObserver, MonitorConfig, ReductionSession};
//! use trace_model::CountingSink;
//!
//! # fn main() -> Result<(), endurance_core::CoreError> {
//! # let config = MonitorConfig::builder()
//! #     .dimensions(1)
//! #     .reference_duration(std::time::Duration::from_secs(2))
//! #     .build()?;
//! let session = ReductionSession::new(config)?
//!     .with_sink(CountingSink::new())
//!     .with_observer(FnObserver(|d: &endurance_core::WindowDecision| {
//!         if d.recorded() {
//!             eprintln!("anomalous window at {}", d.start);
//!         }
//!     }));
//! # let _ = session;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod drift;
mod error;
mod fleet;
mod monitor;
mod periodicity;
mod pmf;
mod recorder;
mod reference;
mod report;
mod session;

pub use config::{DriftGateConfig, MonitorConfig, MonitorConfigBuilder, WindowStrategy};
pub use drift::{DriftDecision, DriftGate};
pub use error::CoreError;
pub use fleet::{
    shard_of, FleetOutcome, FleetReducer, StreamOutcome, DEFAULT_BATCH_SIZE, DEFAULT_QUEUE_DEPTH,
};
pub use monitor::{OnlineMonitor, WindowDecision, WindowVerdict};
pub use periodicity::{estimate_period, PeriodicSuppressor};
pub use pmf::{PmfScratch, WindowPmf};
pub use recorder::{RecorderStats, TraceRecorder};
pub use reference::{EmbeddedModel, ReferenceModel};
pub use report::ReductionReport;
pub use session::{
    rerun_with_model, DecisionObserver, FnObserver, NullObserver, ReductionSession, RerunOutcome,
    SessionOutcome, SessionPhase,
};
