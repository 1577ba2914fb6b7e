//! # trace-model
//!
//! Event model, trace streams, window segmentation and compact codecs for
//! embedded execution traces. A trace is seen only as windows: one
//! engine, [`WindowAssembler`], cuts every consumer's windows, pushed one
//! event at a time or pulled through [`WindowAssembler::windows`].
//!
//! This crate is the substrate shared by the whole workspace: the
//! multimedia-pipeline simulator ([`mm-sim`]) produces [`TraceEvent`]s, the
//! online monitor ([`endurance-core`]) consumes them window by window, and
//! the recorded windows are serialised with the [`codec`] module.
//!
//! The design mirrors what dedicated tracing hardware on an MPSoC provides:
//! a stream of timestamped, typed events delivered in buffers of `N`
//! consecutive events.
//!
//! ## Quick example
//!
//! ```rust
//! use trace_model::{EventTypeRegistry, TraceEvent, Timestamp, Severity};
//! use trace_model::WindowAssembler;
//!
//! # fn main() -> Result<(), trace_model::TraceError> {
//! let mut registry = EventTypeRegistry::new();
//! let decode = registry.register("video.decode")?;
//! let present = registry.register("video.present")?;
//!
//! let events: Vec<TraceEvent> = (0..100)
//!     .map(|i| {
//!         let ty = if i % 2 == 0 { decode } else { present };
//!         TraceEvent::new(Timestamp::from_micros(i * 500), ty, i as u32)
//!     })
//!     .collect();
//!
//! let windows: Vec<_> = WindowAssembler::for_count(25)?.windows(events).collect();
//! assert_eq!(windows.len(), 4);
//! assert!(windows.iter().all(|w| w.len() == 25));
//! # Ok(())
//! # }
//! ```
//!
//! [`mm-sim`]: ../mm_sim/index.html
//! [`endurance-core`]: ../endurance_core/index.html

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
mod error;
mod event;
mod fnv;
pub mod live;
mod registry;
pub mod stream;
mod timestamp;
pub mod window;

pub use error::TraceError;
pub use event::{EventTypeId, Severity, TraceEvent};
pub use fnv::{fnv1a, Fnv1a};
pub use live::{CommitWatermark, SubscriptionStats};
pub use registry::{EventTypeInfo, EventTypeRegistry};
pub use stream::{
    CountingSink, EventSink, EventSource, InterleavedStreams, MemorySink, MemorySource, RecordMeta,
    StreamId,
};
pub use timestamp::Timestamp;
pub use window::{Window, WindowAssembler, WindowId};
