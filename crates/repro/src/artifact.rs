//! The self-contained reproduction artifact and its content hash.
//!
//! A [`ReproArtifact`] carries everything a regression test needs to
//! re-assert a detection forever: the encoded event payloads of the
//! extracted windows (byte-for-byte what the store held), the oracle
//! monitor configuration, the curated [`ReferenceModel`] parameters,
//! and the verdict of every window the oracle re-run produced at seal
//! time. An FNV-1a content hash over every one of those fields is
//! asserted on every load, so a corrupted or hand-edited artifact is
//! rejected with a typed error before it can silently pass (or fail) a
//! regression test. `docs/REPRO.md` is the normative description of
//! the schema, the hash rules and the order of the load checks.

use serde::{DeError, Deserialize, Serialize, Value};

use endurance_core::{
    rerun_with_model, EmbeddedModel, MonitorConfig, ReferenceModel, RerunOutcome, WindowDecision,
    WindowStrategy, WindowVerdict,
};
use trace_model::codec::{BinaryDecoder, BinaryEncoder, TraceDecoder, TraceEncoder};
use trace_model::{Fnv1a, TraceEvent, Window};

use crate::error::ReproError;

/// Schema version written by this build ([`ReproArtifact::schema`]).
/// Loading also accepts schema 1, whose content hash folds the model
/// text itself instead of its digest (`docs/REPRO.md` §1).
pub const ARTIFACT_SCHEMA: u32 = 2;

/// The one older schema this build still loads and re-seals.
const SCHEMA_TEXT_FOLD: u32 = 1;

/// One extracted window: its identity in the source store plus the
/// encoded (`ETRC`) payload exactly as the recorder wrote it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactWindow {
    /// The window's id within its source run.
    pub window_id: u64,
    /// Window start timestamp, in nanoseconds of trace time.
    pub start_ns: u64,
    /// Window end timestamp (exclusive), in nanoseconds of trace time.
    pub end_ns: u64,
    /// Number of events in the payload.
    pub events: u32,
    /// The encoded event payload (canonical binary trace codec).
    pub payload: Vec<u8>,
}

/// The verdict one window received when the artifact was sealed; the
/// oracle re-run must reproduce every pinned verdict on every load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PinnedVerdict {
    /// Window start timestamp, in nanoseconds of trace time.
    pub start_ns: u64,
    /// Window end timestamp (exclusive), in nanoseconds of trace time.
    pub end_ns: u64,
    /// Number of events the re-run window held (gap windows pin zero).
    pub events: usize,
    /// The verdict the oracle produced at seal time.
    pub verdict: WindowVerdict,
}

/// A self-contained, versioned, content-hashed reproduction of one
/// store-backed detection. Written with [`to_bytes`](Self::to_bytes) and
/// read back only through [`from_bytes`](Self::from_bytes), which is
/// where the schema and the content hash are checked.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReproArtifact {
    /// Schema version: [`ARTIFACT_SCHEMA`] for every artifact this build
    /// seals, 1 or 2 for one it loaded. It selects the content-hash
    /// fold; loads of other versions are rejected with
    /// [`ReproError::UnsupportedSchema`].
    pub schema: u32,
    /// Human-readable artifact name (also the corpus file stem).
    pub name: String,
    /// Store lane the windows were extracted from.
    pub lane: u32,
    /// Start timestamp (ns) of the flagged window the artifact must
    /// reproduce as [`WindowVerdict::Anomalous`].
    pub target_start_ns: u64,
    /// The oracle monitor configuration (drift gate disabled, so every
    /// window is LOF-scored statelessly; see `docs/REPRO.md`).
    pub monitor: MonitorConfig,
    /// The curated reference model: its canonical JSON text
    /// ([`EmbeddedModel::json`], what is stored), the text's digest
    /// ([`EmbeddedModel::digest`], what schema 2 hashes) and the model
    /// parsed from that text, which is what every re-run scores with.
    pub model: EmbeddedModel,
    /// The extracted windows, in trace order.
    pub windows: Vec<ArtifactWindow>,
    /// Verdict of every window the seal-time oracle re-run produced,
    /// in stream order (including empty gap windows).
    pub expected: Vec<PinnedVerdict>,
    /// FNV-1a fold over every field above ([`ReproArtifact::compute_hash`]).
    pub content_hash: u64,
}

/// The content hash's FNV-1a ([`Fnv1a`]) and the writes of the fields it
/// folds.
pub(crate) struct Fnv64 {
    hash: Fnv1a,
    /// Bytes folded so far: the cost the sealing tests count.
    #[cfg(test)]
    folded: usize,
}

impl Fnv64 {
    pub(crate) fn new() -> Self {
        Fnv64 {
            hash: Fnv1a::new(),
            #[cfg(test)]
            folded: 0,
        }
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        #[cfg(test)]
        {
            self.folded += bytes.len();
        }
        self.hash.write(bytes);
    }

    pub(crate) fn write_u8(&mut self, value: u8) {
        self.write_bytes(&[value]);
    }

    pub(crate) fn write_u32(&mut self, value: u32) {
        self.write_bytes(&value.to_le_bytes());
    }

    pub(crate) fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.hash.finish()
    }
}

/// Stable one-byte encoding of a verdict for hashing.
fn verdict_tag(verdict: WindowVerdict) -> u8 {
    match verdict {
        WindowVerdict::SimilarMerged => 0,
        WindowVerdict::CheckedNormal => 1,
        WindowVerdict::Anomalous => 2,
    }
}

/// Whether `decision` is the artifact's target window: its start is the
/// target timestamp, or its `[start, end)` range contains it (the
/// containment form is what keeps the target stable for count-based
/// windows, whose boundaries shift as the minimizer removes events).
pub(crate) fn matches_target(decision: &WindowDecision, target_start_ns: u64) -> bool {
    let start = decision.start.as_nanos();
    let end = decision.end.as_nanos();
    start == target_start_ns || (start <= target_start_ns && target_start_ns < end)
}

/// Re-cuts an event sequence into artifact windows under the oracle's
/// window strategy, encoding each non-empty window with the canonical
/// binary codec (empty gap windows are not stored; they re-emerge from
/// the timestamps on re-run, exactly as for store-extracted windows).
pub(crate) fn windows_from_events(
    strategy: &WindowStrategy,
    events: &[TraceEvent],
) -> Result<Vec<ArtifactWindow>, ReproError> {
    fn push_window(out: &mut Vec<ArtifactWindow>, window: Window) -> Result<(), ReproError> {
        if window.events.is_empty() {
            return Ok(());
        }
        let mut payload = Vec::new();
        BinaryEncoder::new().encode(&window.events, &mut payload)?;
        out.push(ArtifactWindow {
            window_id: window.id.index(),
            start_ns: window.start.as_nanos(),
            end_ns: window.end.as_nanos(),
            events: window.events.len() as u32,
            payload,
        });
        Ok(())
    }

    let mut assembler = strategy.assembler()?;
    let mut out = Vec::new();
    for &event in events {
        assembler.push(event, &mut |window| push_window(&mut out, window))?;
    }
    if let Some(trailing) = assembler.finish() {
        push_window(&mut out, trailing)?;
    }
    Ok(out)
}

/// Builds a sealed artifact from already-extracted windows: decodes the
/// payloads, re-runs the oracle, requires the target window to score
/// [`WindowVerdict::Anomalous`], pins every verdict, and seals the
/// content hash.
pub(crate) fn build_sealed(
    name: String,
    lane: u32,
    target_start_ns: u64,
    monitor: MonitorConfig,
    model: EmbeddedModel,
    windows: Vec<ArtifactWindow>,
) -> Result<ReproArtifact, ReproError> {
    let mut artifact = ReproArtifact {
        schema: ARTIFACT_SCHEMA,
        name,
        lane,
        target_start_ns,
        monitor,
        model,
        windows,
        expected: Vec::new(),
        content_hash: 0,
    };
    let outcome = artifact.rerun()?;
    let Some(target) = outcome
        .decisions
        .iter()
        .find(|decision| matches_target(decision, target_start_ns))
    else {
        return Err(ReproError::NotReproduced(format!(
            "re-run produced no window covering target timestamp {target_start_ns} ns"
        )));
    };
    if target.verdict != WindowVerdict::Anomalous {
        return Err(ReproError::NotReproduced(format!(
            "target window at {target_start_ns} ns re-ran as {:?}",
            target.verdict
        )));
    }
    artifact.expected = outcome
        .decisions
        .iter()
        .map(|decision| PinnedVerdict {
            start_ns: decision.start.as_nanos(),
            end_ns: decision.end.as_nanos(),
            events: decision.events,
            verdict: decision.verdict,
        })
        .collect();
    artifact.seal();
    Ok(artifact)
}

/// Every field the content hash covers, borrowed: an artifact's own
/// ([`ReproArtifact::compute_hash`]), or a decoded document's whose
/// model text has been digested but not parsed yet
/// ([`ReproArtifact::from_bytes`] checks the hash first).
struct HashedFields<'a> {
    schema: u32,
    name: &'a str,
    lane: u32,
    target_start_ns: u64,
    monitor: &'a MonitorConfig,
    model_json: &'a str,
    model_digest: u64,
    windows: &'a [ArtifactWindow],
    expected: &'a [PinnedVerdict],
}

impl HashedFields<'_> {
    /// The fold of `docs/REPRO.md` §2.
    fn fold(&self) -> Result<u64, ReproError> {
        let mut fnv = Fnv64::new();
        self.fold_into(&mut fnv)?;
        Ok(fnv.finish())
    }

    /// The fold, into `fnv`. Schema 1 folds the model text; every other
    /// schema folds the text's length and digest, so sealing costs the
    /// size of the artifact, not of its model.
    fn fold_into(&self, fnv: &mut Fnv64) -> Result<(), ReproError> {
        let monitor_json = serde_json::to_string(self.monitor)
            .map_err(|e| ReproError::Malformed(e.to_string()))?;
        fnv.write_u32(self.schema);
        fnv.write_u64(self.name.len() as u64);
        fnv.write_bytes(self.name.as_bytes());
        fnv.write_u32(self.lane);
        fnv.write_u64(self.target_start_ns);
        fnv.write_u64(monitor_json.len() as u64);
        fnv.write_bytes(monitor_json.as_bytes());
        fnv.write_u64(self.model_json.len() as u64);
        if self.schema == SCHEMA_TEXT_FOLD {
            fnv.write_bytes(self.model_json.as_bytes());
        } else {
            fnv.write_u64(self.model_digest);
        }
        fnv.write_u64(self.windows.len() as u64);
        for window in self.windows {
            fnv.write_u64(window.window_id);
            fnv.write_u64(window.start_ns);
            fnv.write_u64(window.end_ns);
            fnv.write_u32(window.events);
            fnv.write_u64(window.payload.len() as u64);
            fnv.write_bytes(&window.payload);
        }
        fnv.write_u64(self.expected.len() as u64);
        for pinned in self.expected {
            fnv.write_u64(pinned.start_ns);
            fnv.write_u64(pinned.end_ns);
            fnv.write_u64(pinned.events as u64);
            fnv.write_u8(verdict_tag(pinned.verdict));
        }
        Ok(())
    }
}

/// A schema-1 or schema-2 document as decoded from the value tree, its
/// model still text: [`ReproArtifact`] before the hash check has earned
/// the parse.
#[derive(Deserialize)]
struct Document {
    schema: u32,
    name: String,
    lane: u32,
    target_start_ns: u64,
    monitor: MonitorConfig,
    model: String,
    windows: Vec<ArtifactWindow>,
    expected: Vec<PinnedVerdict>,
    content_hash: u64,
}

/// What [`ReproArtifact::from_bytes`] asks `serde_json` for. The
/// vendored parser hands its value tree only to a `Deserialize` impl, so
/// the load checks run inside this one, on the tree of the one parse.
struct Loaded(Result<ReproArtifact, ReproError>);

impl Deserialize for Loaded {
    fn from_value(tree: &Value) -> Result<Self, DeError> {
        Ok(Loaded(ReproArtifact::from_tree(tree)))
    }
}

impl ReproArtifact {
    /// Builds and seals an artifact directly from an event sequence,
    /// without going through a store: the events are cut into windows
    /// under `monitor`'s window strategy, the oracle is re-run, the
    /// window covering `target_start_ns` must score
    /// [`WindowVerdict::Anomalous`], every verdict is pinned, and the
    /// content hash is sealed. The monitor configuration is normalised
    /// through [`oracle_config`](crate::oracle_config) first, so the
    /// sealed artifact is always a pure function of its own bytes.
    ///
    /// This is the constructor for synthetic repros (benchmarks,
    /// fixtures, hand-written regressions); store-backed extraction
    /// goes through [`extract_window`](crate::extract_window).
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::NotReproduced`] when no window covers the
    /// target timestamp or the target does not score anomalous, and
    /// propagates windowing, codec and serialisation failures.
    pub fn from_events(
        name: impl Into<String>,
        lane: u32,
        target_start_ns: u64,
        monitor: &MonitorConfig,
        model: &ReferenceModel,
        events: &[TraceEvent],
    ) -> Result<Self, ReproError> {
        let monitor = crate::extract::oracle_config(monitor);
        let windows = windows_from_events(&monitor.window, events)?;
        let model = EmbeddedModel::embed(model)?;
        build_sealed(name.into(), lane, target_start_ns, monitor, model, windows)
    }

    /// The content hash over every field of the artifact except the
    /// hash itself: an FNV-1a fold, in declaration order, of the schema
    /// version, name, lane, target timestamp, the canonical JSON
    /// rendering of the monitor configuration, the model text's length
    /// and digest (schema 1: the text itself), every window (id, range,
    /// count, payload bytes), and every pinned verdict (range, count,
    /// verdict tag). `docs/REPRO.md` lists the exact fold.
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::Malformed`] if the monitor configuration
    /// cannot be rendered to JSON.
    pub fn compute_hash(&self) -> Result<u64, ReproError> {
        self.hashed_fields().fold()
    }

    fn hashed_fields(&self) -> HashedFields<'_> {
        HashedFields {
            schema: self.schema,
            name: &self.name,
            lane: self.lane,
            target_start_ns: self.target_start_ns,
            monitor: &self.monitor,
            model_json: self.model.json(),
            model_digest: self.model.digest(),
            windows: &self.windows,
            expected: &self.expected,
        }
    }

    /// Recomputes and stores the content hash. Called by every builder;
    /// callers constructing artifacts by hand must seal before writing.
    pub fn seal(&mut self) {
        self.content_hash = self
            .compute_hash()
            .expect("monitor configuration serializes to JSON");
    }

    /// Serializes the artifact to its on-disk byte form (JSON).
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::Malformed`] if serialization fails.
    pub fn to_bytes(&self) -> Result<Vec<u8>, ReproError> {
        serde_json::to_string(self)
            .map(String::into_bytes)
            .map_err(|e| ReproError::Malformed(e.to_string()))
    }

    /// Loads an artifact from its on-disk byte form. The document is
    /// parsed once and judged in a fixed order (`docs/REPRO.md` §1,
    /// *Loading*): UTF-8, JSON, schema version, structure, content hash,
    /// and only then the model text — so an artifact that loads always
    /// holds a usable model.
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::Malformed`] for bytes that are not UTF-8,
    /// not JSON or not shaped like the schema,
    /// [`ReproError::UnsupportedSchema`] for a version this build does
    /// not understand, [`ReproError::HashMismatch`] when the bytes were
    /// altered after sealing, and [`ReproError::Core`] when a sealed
    /// model text does not describe a model.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ReproError> {
        let text =
            std::str::from_utf8(bytes).map_err(|_| ReproError::Malformed("not UTF-8".into()))?;
        let Loaded(artifact) =
            serde_json::from_str(text).map_err(|e| ReproError::Malformed(e.to_string()))?;
        artifact
    }

    /// [`from_bytes`](Self::from_bytes) from the schema probe on.
    fn from_tree(tree: &Value) -> Result<Self, ReproError> {
        #[derive(Deserialize)]
        struct SchemaProbe {
            schema: u32,
        }
        let malformed = |e: DeError| ReproError::Malformed(e.to_string());
        let probe = SchemaProbe::from_value(tree).map_err(malformed)?;
        if !matches!(probe.schema, SCHEMA_TEXT_FOLD | ARTIFACT_SCHEMA) {
            return Err(ReproError::UnsupportedSchema {
                found: probe.schema,
                supported: ARTIFACT_SCHEMA,
            });
        }
        let document = Document::from_value(tree).map_err(malformed)?;
        // The digest comes from the document's own text, which is then
        // parsed only if the fold over it matches the seal.
        let model = EmbeddedModel::parse_checked(&document.model, |model_digest| {
            let actual = HashedFields {
                schema: document.schema,
                name: &document.name,
                lane: document.lane,
                target_start_ns: document.target_start_ns,
                monitor: &document.monitor,
                model_json: &document.model,
                model_digest,
                windows: &document.windows,
                expected: &document.expected,
            }
            .fold()?;
            if actual != document.content_hash {
                return Err(ReproError::HashMismatch {
                    expected: document.content_hash,
                    actual,
                });
            }
            Ok(())
        })?;
        Ok(ReproArtifact {
            model,
            schema: document.schema,
            name: document.name,
            lane: document.lane,
            target_start_ns: document.target_start_ns,
            monitor: document.monitor,
            windows: document.windows,
            expected: document.expected,
            content_hash: document.content_hash,
        })
    }

    /// Decodes every window payload into the artifact's full event
    /// sequence, in trace order.
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::Trace`] for an undecodable payload.
    pub fn events(&self) -> Result<Vec<TraceEvent>, ReproError> {
        let mut decoder = BinaryDecoder::new();
        let mut events = Vec::new();
        for window in &self.windows {
            decoder.decode_into(&window.payload, &mut events)?;
        }
        Ok(events)
    }

    /// The curated reference model, as parsed from the artifact's own
    /// model text: the model every re-run of this artifact scores with.
    pub fn reference_model(&self) -> &ReferenceModel {
        self.model.model()
    }

    /// Runs the oracle once over the artifact's events: a fresh
    /// monitoring-only session built from the embedded model and
    /// configuration. Pure function of the artifact.
    ///
    /// # Errors
    ///
    /// Propagates decode and session-construction failures.
    pub fn rerun(&self) -> Result<RerunOutcome, ReproError> {
        let events = self.events()?;
        let model = self.reference_model().clone();
        Ok(rerun_with_model(self.monitor.clone(), model, &events)?)
    }

    /// Re-runs the oracle and asserts the artifact still reproduces:
    /// every pinned verdict matches (same window sequence, same
    /// verdicts) and the target window scores
    /// [`WindowVerdict::Anomalous`].
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::DecisionCountMismatch`],
    /// [`ReproError::VerdictMismatch`] or [`ReproError::NotReproduced`]
    /// when the re-run diverges from what was sealed.
    pub fn verify(&self) -> Result<RerunOutcome, ReproError> {
        let outcome = self.rerun()?;
        if outcome.decisions.len() != self.expected.len() {
            return Err(ReproError::DecisionCountMismatch {
                expected: self.expected.len(),
                actual: outcome.decisions.len(),
            });
        }
        for (decision, pinned) in outcome.decisions.iter().zip(&self.expected) {
            if decision.start.as_nanos() != pinned.start_ns || decision.events != pinned.events {
                return Err(ReproError::NotReproduced(format!(
                    "window sequence diverged: re-run window at {} ns with {} events, \
                     artifact pinned {} ns with {} events",
                    decision.start.as_nanos(),
                    decision.events,
                    pinned.start_ns,
                    pinned.events
                )));
            }
            if decision.verdict != pinned.verdict {
                return Err(ReproError::VerdictMismatch {
                    start_ns: pinned.start_ns,
                    expected: pinned.verdict,
                    actual: decision.verdict,
                });
            }
        }
        let target_anomalous = outcome.decisions.iter().any(|d| {
            matches_target(d, self.target_start_ns) && d.verdict == WindowVerdict::Anomalous
        });
        if !target_anomalous {
            return Err(ReproError::NotReproduced(format!(
                "no anomalous window covers target timestamp {} ns",
                self.target_start_ns
            )));
        }
        Ok(outcome)
    }

    /// Total number of events across the artifact's windows.
    pub fn event_count(&self) -> usize {
        self.windows
            .iter()
            .map(|window| window.events as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a("") is the offset basis; FNV-1a("a") is a published
        // test vector.
        let empty = Fnv64::new();
        assert_eq!(empty.finish(), 0xcbf2_9ce4_8422_2325);
        let mut a = Fnv64::new();
        a.write_bytes(b"a");
        assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    /// A small learned model over four event types; `tilt` moves every
    /// reference point, so different tilts give different model texts.
    fn small_model(tilt: u64) -> ReferenceModel {
        use endurance_core::WindowPmf;
        let config = MonitorConfig::builder().dimensions(4).k(3).build().unwrap();
        let pmfs = (0..8u64)
            .map(|i| WindowPmf::from_counts(&[40 + i % 3, 30 + tilt, 20, 10 + i % 2], 0.5))
            .collect();
        ReferenceModel::learn_from_pmfs(pmfs, &config).unwrap()
    }

    #[test]
    fn hash_is_sensitive_to_every_field() {
        let base = ReproArtifact {
            schema: ARTIFACT_SCHEMA,
            name: "case".into(),
            lane: 3,
            target_start_ns: 40_000_000,
            monitor: MonitorConfig::paper_defaults(4).unwrap(),
            model: EmbeddedModel::embed(&small_model(0)).unwrap(),
            windows: vec![ArtifactWindow {
                window_id: 7,
                start_ns: 40_000_000,
                end_ns: 80_000_000,
                events: 2,
                payload: vec![1, 2, 3],
            }],
            expected: vec![PinnedVerdict {
                start_ns: 40_000_000,
                end_ns: 80_000_000,
                events: 2,
                verdict: WindowVerdict::Anomalous,
            }],
            content_hash: 0,
        };
        let reference = base.compute_hash().unwrap();

        let mut touched = base.clone();
        touched.name = "other".into();
        assert_ne!(touched.compute_hash().unwrap(), reference);

        let mut touched = base.clone();
        touched.model = EmbeddedModel::embed(&small_model(1)).unwrap();
        assert_ne!(touched.compute_hash().unwrap(), reference);

        let mut touched = base.clone();
        touched.windows[0].payload[1] ^= 1;
        assert_ne!(touched.compute_hash().unwrap(), reference);

        let mut touched = base.clone();
        touched.expected[0].verdict = WindowVerdict::CheckedNormal;
        assert_ne!(touched.compute_hash().unwrap(), reference);

        let mut touched = base.clone();
        touched.target_start_ns += 1;
        assert_ne!(touched.compute_hash().unwrap(), reference);

        let mut touched = base.clone();
        touched.schema = SCHEMA_TEXT_FOLD;
        assert_ne!(touched.compute_hash().unwrap(), reference);
    }

    /// Bytes [`ReproArtifact::compute_hash`] folds for `artifact`.
    fn folded_bytes(artifact: &ReproArtifact) -> usize {
        let mut fnv = Fnv64::new();
        artifact.hashed_fields().fold_into(&mut fnv).unwrap();
        fnv.folded
    }

    /// A model of `points` reference pmfs over 16 event types, twelve of
    /// them distinct (as on the paper's workload).
    fn model_of(points: u64) -> ReferenceModel {
        use endurance_core::WindowPmf;
        let config = MonitorConfig::builder()
            .dimensions(16)
            .k(3)
            .build()
            .unwrap();
        let pmfs = (0..points)
            .map(|i| {
                let counts: Vec<u64> = (0..16).map(|d| 40 + 7 * d + (i % 12) * (d % 5)).collect();
                WindowPmf::from_counts(&counts, 0.5)
            })
            .collect();
        ReferenceModel::learn_from_pmfs(pmfs, &config).unwrap()
    }

    #[test]
    fn sealing_folds_the_artifact_not_the_model() {
        let windows: Vec<ArtifactWindow> = (100..105u64)
            .map(|w| ArtifactWindow {
                window_id: w,
                start_ns: w * 40_000_000,
                end_ns: (w + 1) * 40_000_000,
                events: 3,
                payload: vec![w as u8; 24],
            })
            .collect();
        let around = |model: &ReferenceModel| ReproArtifact {
            schema: ARTIFACT_SCHEMA,
            name: "sized".into(),
            lane: 0,
            target_start_ns: 102 * 40_000_000,
            monitor: MonitorConfig::paper_defaults(16).unwrap(),
            model: EmbeddedModel::embed(model).unwrap(),
            windows: windows.clone(),
            expected: Vec::new(),
            content_hash: 0,
        };
        let small = around(&model_of(12));
        let large = around(&model_of(3_000));
        let grown = large.model.json().len() - small.model.json().len();
        assert!(
            large.model.json().len() >= 800_000,
            "{} bytes of model text",
            large.model.json().len()
        );
        assert_eq!(folded_bytes(&small), folded_bytes(&large));

        // Schema 1 folds the text itself: every byte of it, per seal.
        let text_fold = |artifact: &ReproArtifact| ReproArtifact {
            schema: SCHEMA_TEXT_FOLD,
            ..artifact.clone()
        };
        assert_eq!(
            folded_bytes(&text_fold(&large)) - folded_bytes(&text_fold(&small)),
            grown
        );
    }

    #[test]
    fn windows_from_events_round_trips_under_time_strategy() {
        use std::time::Duration;
        use trace_model::{EventTypeId, Timestamp};

        let events: Vec<TraceEvent> = (0..10u64)
            .map(|i| {
                TraceEvent::new(
                    Timestamp::from_millis(i * 25),
                    EventTypeId::new((i % 3) as u16),
                    i as u32,
                )
            })
            .collect();
        let strategy = WindowStrategy::Time(Duration::from_millis(40));
        let windows = windows_from_events(&strategy, &events).unwrap();
        assert!(!windows.is_empty());
        // Decoding the payloads back yields the original sequence.
        let mut decoder = BinaryDecoder::new();
        let mut decoded = Vec::new();
        for window in &windows {
            decoder.decode_into(&window.payload, &mut decoded).unwrap();
        }
        assert_eq!(decoded, events);
        // Starts are aligned to the 40 ms grid.
        for window in &windows {
            assert_eq!(window.start_ns % 40_000_000, 0);
        }
    }
}
