//! Trace → regression-test extraction with a ddmin minimizer.
//!
//! After an endurance run flags an anomaly, the reduced trace sitting
//! in the durable store is only as valuable as what can be *done* with
//! it. This crate closes the loop endurance-test → incident →
//! permanent regression test, in three steps:
//!
//! 1. **Extraction** ([`extract_window`]) — pull
//!    the flagged window and its recorded neighbours byte-for-byte out
//!    of a [`StoreReader`](endurance_store::StoreReader) into a
//!    self-contained, versioned, content-hashed [`ReproArtifact`]:
//!    encoded event payloads, window metadata, the detector
//!    configuration, the curated reference-model parameters, and the
//!    pinned verdict of every window an oracle re-run produces.
//! 2. **Minimization** ([`minimize`], built on the generic [`ddmin`])
//!    — deterministically shrink the artifact's event sequence to a
//!    1-minimal subsequence that still reproduces the anomalous
//!    verdict under a fresh detector re-run, with complement-first
//!    splitting and budget-capped oracle calls.
//! 3. **Emission** ([`CorpusWriter`]) — render each minimized artifact
//!    as a `#[test]` spec file plus data fixture under a `corpus/`
//!    directory, such that `cargo test` over the generated corpus
//!    re-asserts the verdict and the content hash forever.
//!
//! `docs/REPRO.md` is the normative reference for the artifact schema,
//! the hash rules, the ddmin oracle contract and the corpus layout.
//!
//! The generic minimizer is usable on any token sequence:
//!
//! ```
//! use endurance_repro::ddmin;
//!
//! // The "failure" needs tokens 3 and 6 to be present.
//! let input: Vec<i32> = (0..32).collect();
//! let outcome = ddmin(
//!     &input,
//!     |candidate: &[i32]| Ok::<_, ()>(candidate.contains(&3) && candidate.contains(&6)),
//!     1_000,
//! )
//! .unwrap();
//! assert_eq!(outcome.minimal, vec![3, 6]);
//! assert!(outcome.proven_minimal);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod artifact;
mod corpus;
mod ddmin;
mod error;
mod extract;

pub use artifact::{ArtifactWindow, PinnedVerdict, ReproArtifact, ARTIFACT_SCHEMA};
pub use corpus::{verify_corpus, CorpusReport, CorpusWriter, FIXTURE_SUFFIX, MANIFEST_FILE};
pub use ddmin::{ddmin, minimize, DdminOutcome, MinimizeConfig, MinimizeOutcome, MinimizeReport};
pub use endurance_core::EmbeddedModel;
pub use error::ReproError;
pub use extract::{extract_window, oracle_config};
