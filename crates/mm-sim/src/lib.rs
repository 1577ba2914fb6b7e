//! # mm-sim
//!
//! A discrete-time multimedia pipeline simulator that stands in for the
//! GStreamer-on-MPSoC setup used in the DATE 2015 paper *"Reducing trace
//! size in multimedia applications endurance tests"*.
//!
//! The simulator models a single-core video playback pipeline
//! (source → demuxer → decoder → converter → sink, plus an audio path),
//! a playout buffer with prebuffering, and a CPU-contention *perturbation*
//! injector. It emits a [`trace_model::TraceEvent`] stream with the same
//! statistical structure the paper's monitor relies on:
//!
//! * during normal playback the per-window event mix is highly regular;
//! * while a perturbation steals CPU, decoding slows down, the playout
//!   buffer drains and — after a buffering-induced delay Δs — the sink
//!   starts reporting QoS errors (underruns, dropped frames), shifting the
//!   event mix;
//! * after the perturbation ends the impact persists for another delay Δe
//!   until the buffer refills.
//!
//! The event stream is the simulator's one output: what a run did —
//! frames decoded and rendered, underruns, starved audio chunks — is
//! counted from its events, exactly as the monitor sees it.
//!
//! ## Quick example
//!
//! ```rust
//! use mm_sim::{Scenario, Simulation};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), mm_sim::SimError> {
//! // A 30-second clean run (no perturbations).
//! let scenario = Scenario::reference(Duration::from_secs(30), 42)?;
//! let registry = scenario.registry()?;
//! let events: Vec<_> = Simulation::new(&scenario, &registry)?.collect();
//! assert!(!events.is_empty());
//! assert!(events.iter().all(|ev| !ev.is_error()), "clean run has no QoS errors");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod element;
mod error;
mod fault;
mod fleet;
mod frame;
mod perturbation;
mod pipeline;
mod qos;
mod rng;
mod scenario;
mod scheduler;
mod sim;
mod tracegen;

pub use element::{ElementSpec, MediaKind};
pub use error::SimError;
pub use fault::{DeliveryStats, FaultKind, FaultPlan, FaultRecord, FleetTruth, StreamTruth};
pub use fleet::{
    ChurnModel, FleetEvent, FleetScenario, FleetScenarioBuilder, FleetSim, TraceHasher,
};
pub use frame::{Frame, FrameKind, GopStructure};
pub use perturbation::{PerturbationInterval, PerturbationSchedule};
pub use pipeline::PipelineSpec;
pub use qos::{PlayoutBuffer, PresentOutcome};
pub use rng::SimRng;
pub use scenario::{Scenario, ScenarioBuilder};
pub use scheduler::CpuModel;
pub use sim::EventQueue;
pub use tracegen::{qos_event_names, Simulation};
