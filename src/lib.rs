//! # endurance
//!
//! Facade crate for the endurance-test trace-reduction workspace. It
//! re-exports the workspace crates under one roof so downstream users can
//! depend on a single crate, and it owns the cross-crate `examples/` and
//! integration `tests/`.
//!
//! * [`trace_model`] — events, windows, codecs, sources and sinks;
//! * [`lof_anomaly`] — distance metrics, k-NN and Local Outlier Factor;
//! * [`endurance_core`] — the online monitor and the push-based
//!   [`endurance_core::ReductionSession`];
//! * [`mm_sim`] — the multimedia-pipeline workload simulator;
//! * [`endurance_eval`] — ground truth, metrics, sweeps and baselines;
//! * [`endurance_store`] — durable segment storage for recorded traces,
//!   with crash recovery and windowed replay;
//! * [`endurance_repro`] — reproduction artifacts extracted from
//!   recorded stores, the ddmin minimizer and the regression-corpus
//!   writer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use endurance_core;
pub use endurance_eval;
pub use endurance_repro;
pub use endurance_store;
pub use lof_anomaly;
pub use mm_sim;
pub use trace_model;
